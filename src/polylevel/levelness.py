"""Interior splitting: pseudo-Gorenstein*, level*, reduced and int* degrees.

Definitions, for a full-dimensional lattice polytope P given by x >= 0 and
0/1-normal upper facets:

* P is pseudo-Gorenstein* when its interior holds exactly one lattice
  point (P is normal by construction for every polytope this package
  produces).

* P is level* when the interior is nonempty and every interior lattice
  point a of every dilate N*P splits as a = a0 + a' with a0 an interior
  lattice point of P and a' a lattice point of (N-1)*P.

* The reduced degree of an interior lattice point a of N*P is the least
  r >= 1 such that a = a0 + a' with a0 interior to r*P and a' in (N-r)*P;
  r = N always works.  The int* degree of P is the largest reduced degree
  over all dilates, and P is level* exactly when that degree is 1.

Finite scan bound.  The reduced degree never exceeds n - 1, and a point
of reduced degree r >= 2 at level N > r yields one of reduced degree
exactly r at level r: split off an interior summand a0 of r*P; were a0 =
b0 + b' with b0 interior to s*P, s < r, then a itself would split at s.
So the maximum is realized at level N = r <= n - 1, and scanning dilation
levels 2..max(2, n-1) decides levelness.  The argument splits off an
interior summand, so it assumes a nonempty interior of P; with an empty
interior the scan still stops at the same default level, and the int*
degree it reports may fall short of the true one (a known gap, kept as
it is).  The bound is overridable for exploratory runs and recorded in
reports.

Split tests in closed form.  A candidate summand a0 for a at level N and
degree r is constrained per coordinate to the window

    max(1, a_i - (N-r) u_i)  <=  a0_i  <=  min(a_i, r u_i - 1)

(u_i the singleton bound, absent terms dropped) and per aggregate facet
(A, t) to  sum_A a - (N-r) t <= sum_A a0 <= r t - 1.  When the aggregate
facets are pairwise disjoint these constraints decouple, so existence is
a per-aggregate interval intersection; searches over failing points then
run over aggregate coordinates only, with suffix tables of the two
achievable extremes.  Nested (laminar) families use an exact interval
propagation instead; anything else falls back to an explicit depth-first
search per point.

Degree histogram by block and twin orbit.  With an empty interior of P
no point of any dilate splits at r = 1, so every interior point has
degree >= 2 and belongs to the degree table.  Those hulls are scanned as
an exact histogram {(N, r): count} instead of point by point, on two
arguments that hold for every facet system of this form:

* Product separability.  The blocks are the connected components of the
  aggregate facet supports.  Every facet lives in one block, so P is the
  product of its block polytopes, the interior of N*P is the product of
  the block interiors, and the summand window at (N, r) constrains each
  block separately.  A point therefore splits at r exactly when each of
  its block parts does: its set of feasible r is the intersection of the
  block sets, and the histogram of a level is the product over blocks of
  their histograms of feasible-r bitmasks, intersected.
* Twin symmetry.  Twins are coordinates with the same singleton bound and
  the same aggregate memberships.  Swapping two twins maps P onto itself,
  hence every dilate's interior and every split onto themselves, so a
  point has the degree of its sorted twin classes.  Each block is
  enumerated one representative per orbit (nondecreasing within each
  twin class) and the representative counts for its distinct
  permutations.

No monotonicity in r is assumed.  A degree r is tested only when r*P has
an interior point (the all-ones point is the least candidate), since a
split at r needs one.  The report's table is a lazy view of the
histogram: its length is a sum of counts, a lookup reads the block
representatives' bitmasks, and points are listed only when iterated;
`table_cap` bounds the representatives the scan holds.

Hulls with a nonempty interior keep the point-by-point scan of failing
points, and `table_cap` bounds the points it holds.  Failing points need
not be few there: the K(3,4) hull with c = 2 has 402,116 of them over
levels 2..6.  That scan stays because it is output-sensitive: with
disjoint aggregates it prunes every subtree that cannot fail a degree-1
split, so a level* hull costs about nothing, where a histogram visits
every interior orbit.  For `level_star` on the 11 level* hulls with
n = 7 in an eighth of acceptance check A05, a histogram-only scan took
over 300 times as long as the pruned one, and the whole of A05 about 50
times as long.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .errors import BudgetExceededError
# `lattice_points` is not called here; it stays bound because the
# benchmark's tracer (perfbench/tracing.py) wraps these names in this module.
from .lattice import (
    DEFAULT_NODE_BUDGET,
    _Structure,
    _structure,
    count_lattice_points,
    iter_lattice_points,
    lattice_points,
    membership,
)
from .polymatroid import HPolytope

ExponentVector = tuple[int, ...]

DEFAULT_TABLE_CAP = 10**6
_NEG = -(10**15)


def pseudo_gorenstein_star(P: HPolytope, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Exactly one interior lattice point?"""
    return count_lattice_points(P, 1, "interior", budget=budget) == 1


def _window(a_i: int, u_i: int | None, N: int, r: int) -> tuple[int, int | None]:
    """Feasible values of the summand coordinate; upper None means only a_i."""
    lo = 1
    hi = a_i
    if u_i is not None:
        lo = max(lo, a_i - (N - r) * u_i)
        hi = min(hi, r * u_i - 1)
    return lo, hi


def _split_feasible_disjoint(st: _Structure, a: ExponentVector, N: int, r: int) -> bool:
    """Split-existence when aggregate facets are pairwise disjoint."""
    wlo = [0] * st.n
    whi = [0] * st.n
    for i in range(st.n):
        lo, hi = _window(a[i], st.u[i], N, r)
        if lo > hi:
            return False
        wlo[i], whi[i] = lo, hi
    for A, t in st.aggs:
        s_a = sum(a[i - 1] for i in A)
        lo = max(s_a - (N - r) * t, sum(wlo[i - 1] for i in A))
        hi = min(r * t - 1, sum(whi[i - 1] for i in A))
        if lo > hi:
            return False
    return True


def _split_feasible_laminar(st: _Structure, a: ExponentVector, N: int, r: int) -> bool:
    """Split-existence for a laminar aggregate family.

    Interval propagation leaf-to-root: the achievable sum range of an
    aggregate is the sum of its children's clipped ranges plus the
    coordinate windows it owns, clipped to its own window; sums of
    contiguous integer ranges over disjoint parts stay contiguous, so the
    propagation is exact.
    """
    wlo = [0] * st.n
    whi = [0] * st.n
    for i in range(st.n):
        lo, hi = _window(a[i], st.u[i], N, r)
        if lo > hi:
            return False
        wlo[i], whi[i] = lo, hi
    k_lo = [0] * len(st.aggs)
    k_hi = [0] * len(st.aggs)
    for k, (A, t) in enumerate(st.aggs):  # sorted by size: children first
        lo = sum(k_lo[ch] for ch in st.forest[k]) + sum(wlo[i - 1] for i in st.own[k])
        hi = sum(k_hi[ch] for ch in st.forest[k]) + sum(whi[i - 1] for i in st.own[k])
        s_a = sum(a[i - 1] for i in A)
        lo = max(lo, s_a - (N - r) * t)
        hi = min(hi, r * t - 1)
        if lo > hi:
            return False
        k_lo[k], k_hi[k] = lo, hi
    return True


def _split_exists_dfs(st: _Structure, a: ExponentVector, N: int, r: int) -> bool:
    """Split-existence by depth-first search; valid for any facet structure."""
    n = st.n
    windows = []
    for i in range(n):
        lo, hi = _window(a[i], st.u[i], N, r)
        if lo > hi:
            return False
        windows.append((lo, hi))
    aggs = []
    for A, t in st.aggs:
        s_a = sum(a[i - 1] for i in A)
        need = s_a - (N - r) * t          # lower bound on the summand's A-sum
        cap = r * t - 1                   # upper bound
        suf_lo = [0] * (n + 1)
        suf_hi = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            inA = (i + 1) in A
            suf_lo[i] = suf_lo[i + 1] + (windows[i][0] if inA else 0)
            suf_hi[i] = suf_hi[i + 1] + (windows[i][1] if inA else 0)
        aggs.append((need, cap, suf_lo, suf_hi))

    def rec(i: int, used: list[int]) -> bool:
        if i == n:
            return all(used[k] >= aggs[k][0] for k in range(len(aggs)))
        lo, hi = windows[i]
        for k in st.agg_at[i]:
            need, cap, suf_lo, suf_hi = aggs[k]
            hi = min(hi, cap - used[k] - suf_lo[i + 1])
            lo = max(lo, need - used[k] - suf_hi[i + 1])
        for v in range(lo, hi + 1):
            for k in st.agg_at[i]:
                used[k] += v
            if rec(i + 1, used):
                return True
            for k in st.agg_at[i]:
                used[k] -= v
        return False

    return rec(0, [0] * len(aggs))


def _split_exists(st: _Structure, a: ExponentVector, N: int, r: int) -> bool:
    if st.disjoint:
        return _split_feasible_disjoint(st, a, N, r)
    if st.laminar:
        return _split_feasible_laminar(st, a, N, r)
    return _split_exists_dfs(st, a, N, r)


def reduced_degree(P: HPolytope, a, N: int, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Least r such that a splits off an interior lattice point of r*P."""
    a = tuple(a)
    if not membership(P, a, N, "interior"):
        raise ValueError(f"{a} is not an interior lattice point of the {N}-fold dilate")
    st = _structure(P)
    for r in range(1, N + 1):
        if _split_exists(st, a, N, r):
            return r
    raise RuntimeError("unreachable: r = N always splits")  # pragma: no cover


# --- enumeration of points with no degree-1 split -------------------------

def _gain_tables(members, u, t, N, cond: int):
    """Suffix DP tables for the best achievable aggregate statistics.

    For a run over the aggregate's coordinates k.. with value budget b,
    table[k][b] is the maximum of sum phi(v_i) over choices 1 <= v_i
    (capped by N*u_i - 1 when u_i is finite) with sum v_i <= b, where

        cond 1:  phi(v) = v - min(v, u - 1)   (excess over the box interior)
        cond 2:  phi(v) = max(1, v - (N-1) u) (forced remainder floor)

    A point's aggregate fails its degree-1 split iff condition 1 exceeds
    (N-1) t or condition 2 exceeds t - 1.
    """
    budget = N * t - 1
    m = len(members)
    table = [[_NEG] * (budget + 1) for _ in range(m + 1)]
    table[m] = [0] * (budget + 1)
    for k in range(m - 1, -1, -1):
        ui = u[members[k] - 1]
        cap = budget if ui is None else min(budget, N * ui - 1)
        row = table[k]
        nxt = table[k + 1]
        for b in range(budget + 1):
            best = _NEG
            for v in range(1, min(cap, b) + 1):
                base = nxt[b - v]
                if base == _NEG:
                    continue
                if cond == 1:
                    g = base + (0 if ui is None else max(0, v - ui + 1))
                else:
                    g = base + (1 if ui is None else max(1, v - (N - 1) * ui))
                if g > best:
                    best = g
            row[b] = best
    return table


class _FailScanner:
    """Lex-order enumeration of interior points of N*P with no degree-1 split.

    Only valid when the aggregate facets are pairwise disjoint and the
    interior of P is nonempty (then no coordinate window can be empty and
    failure is a per-aggregate threshold event).  Subtrees that cannot
    reach any aggregate's threshold are pruned via the suffix tables.
    """

    def __init__(self, st: _Structure, N: int, budget: int):
        self.st, self.N, self.budget = st, N, budget
        self.n = st.n
        self.aggs = []
        for A, t in st.aggs:
            self.aggs.append({
                "t": t,
                "limit": N * t - 1,
                "phi1": _gain_tables(A, st.u, t, N, cond=1),
                "phi2": _gain_tables(A, st.u, t, N, cond=2),
                # upto[i] = members with vertex number <= i
                "upto": [sum(1 for m in A if m <= i) for i in range(st.n + 1)],
            })
        self.nodes = 0

    def _alive(self, i: int, used, fixed1, fixed2) -> bool:
        """Can some completion of the current prefix fail its split?"""
        N = self.N
        for k, agg in enumerate(self.aggs):
            t = agg["t"]
            nxt = agg["upto"][i]
            b = agg["limit"] - used[k]
            if b < 0:
                continue
            best1 = agg["phi1"][nxt][b]
            if best1 != _NEG and fixed1[k] + best1 > (N - 1) * t:
                return True
            best2 = agg["phi2"][nxt][b]
            if best2 != _NEG and fixed2[k] + best2 > t - 1:
                return True
        return False

    def scan(self, collect: list | None, cap: int | None):
        """Yield-style scan; returns the first failing point, filling `collect`
        with every failing point when a list is passed."""
        st, N = self.st, self.N
        n = self.n
        point = [0] * n
        used = [0] * len(self.aggs)
        fixed1 = [0] * len(self.aggs)
        fixed2 = [0] * len(self.aggs)
        first: list = []

        def rec(i: int) -> bool:
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceededError(f"level scan exceeded {self.budget} nodes")
            if i == n:
                a = tuple(point)
                if collect is not None:
                    collect.append(a)
                    if cap is not None and len(collect) > cap:
                        raise BudgetExceededError(
                            f"more than table_cap = {cap} points without degree-1 split"
                        )
                if not first:
                    first.append(a)
                return collect is None  # stop at the first hit unless collecting
            ui = st.u[i]
            hi = None if ui is None else N * ui - 1
            k = st.agg_at[i][0] if st.agg_at[i] else None  # disjoint: at most one
            if k is not None:
                room = self.aggs[k]["limit"] - used[k] - st.after[k][i]
                hi = room if hi is None else min(hi, room)
            for v in range(1, hi + 1):
                point[i] = v
                if k is not None:
                    uv = st.u[i]
                    used[k] += v
                    d1 = 0 if uv is None else max(0, v - uv + 1)
                    d2 = 1 if uv is None else max(1, v - (N - 1) * uv)
                    fixed1[k] += d1
                    fixed2[k] += d2
                if self._alive(i + 1, used, fixed1, fixed2):
                    if rec(i + 1):
                        return True
                if k is not None:
                    used[k] -= v
                    fixed1[k] -= d1
                    fixed2[k] -= d2
            return False

        rec(0)
        return first[0] if first else None


def _iter_failing(P: HPolytope, st: _Structure, N: int, budget: int,
                  collect: list | None, cap: int | None):
    """First (or all) interior points of N*P without a degree-1 split.

    Needs a nonempty interior of P; otherwise every point fails, and the
    degree scan takes the histogram path instead.
    """
    if st.disjoint:
        return _FailScanner(st, N, budget).scan(collect, cap)
    # fallback: plain interior enumeration with a per-point search
    first = None
    for a in iter_lattice_points(P, N, "interior", budget=budget):
        if not _split_exists(st, a, N, 1):
            if first is None:
                first = a
            if collect is None:
                return first
            collect.append(a)
            if cap is not None and len(collect) > cap:
                raise BudgetExceededError(
                    f"more than table_cap = {cap} points without degree-1 split"
                )
    return first


# --- degree histogram by block and twin orbit -----------------------------

def _restrict(P: HPolytope, members: tuple[int, ...]) -> HPolytope:
    """The block polytope: the facets supported in `members`, renumbered 1.."""
    local = {v: k for k, v in enumerate(members, 1)}
    return HPolytope(len(members), tuple(
        (tuple(local[i] for i in A), t) for A, t in P.upper_facets if A[0] in local
    ))


class _OrbitScan:
    """Interior points of the dilates of one block Q, one per twin orbit.

    Twins are coordinates with the same singleton bound and the same
    aggregate memberships.  Coordinates are visited class by class, each
    class nondecreasing, and a representative is weighted by the number of
    distinct permutations of its values within the classes.  Per scanned
    level N, `masks[N]` maps each representative to its feasible split
    degrees (bit r-1 for r; only the least one when `full` is false) and
    `hists[N]` sums the weights per mask.
    """

    def __init__(self, Q: HPolytope, full: bool):
        st = self.st = _structure(Q)
        self.full = full
        classes: dict = {}
        for i in range(st.n):
            classes.setdefault((st.u[i], st.agg_at[i]), []).append(i)
        self.classes = list(classes.values())
        self.order = [i for c in self.classes for i in c]
        # per visiting position: rank within its class, twins still to come,
        # and per aggregate through it the other members still to come
        self.rank, self.same_later, self.aggs_at = [], [], []
        for c in self.classes:
            for j, i in enumerate(c):
                self.rank.append(j)
                self.same_later.append(len(c) - 1 - j)
                p = len(self.aggs_at)
                later = set(self.order[p + 1:]) - set(c)
                self.aggs_at.append(tuple(
                    (k, sum(1 for m in st.aggs[k][0] if m - 1 in later))
                    for k in st.agg_at[i]
                ))
        self.masks: dict[int, dict[ExponentVector, int]] = {}
        self.hists: dict[int, dict[int, int]] = {}

    def key(self, values) -> ExponentVector:
        """The representative of a block point: values sorted within each class."""
        rep = list(values)
        for c in self.classes:
            for i, v in zip(c, sorted(values[i] for i in c)):
                rep[i] = v
        return tuple(rep)

    def scan_level(self, N: int, tests: tuple[int, ...], budget: int, held: int,
                   table_cap: int) -> int:
        """Fill masks[N] and hists[N], testing the split degrees `tests`;
        returns the representatives held.

        `held` representatives are already held elsewhere, and the total
        may not exceed `table_cap`.
        """
        st, order, full = self.st, self.order, self.full
        m = len(order)
        caps = [None if u is None else N * u - 1 for u in st.u]
        limits = [N * t - 1 for _A, t in st.aggs]
        top = 1 << (N - 1)                 # r = N always splits
        point = [0] * st.n
        used = [0] * len(st.aggs)
        masks: dict[ExponentVector, int] = {}
        hist: dict[int, int] = {}
        nodes = 0

        def rec(p: int, lo: int, weight: int, run: int) -> None:
            nonlocal nodes
            if p == m:
                a = tuple(point)
                mask = top
                for r in tests:
                    if _split_exists(st, a, N, r):
                        mask |= 1 << (r - 1)
                        if not full:
                            break
                masks[a] = mask
                hist[mask] = hist.get(mask, 0) + weight
                if held + len(masks) > table_cap:
                    raise BudgetExceededError(
                        f"more than table_cap = {table_cap} orbit representatives held"
                    )
                return
            i = order[p]
            hi = caps[i]
            for k, other in self.aggs_at[p]:
                b = (limits[k] - used[k] - other) // (1 + self.same_later[p])
                hi = b if hi is None else min(hi, b)
            first = self.rank[p] == 0
            for v in range(lo, hi + 1):
                nodes += 1
                if nodes > budget:
                    raise BudgetExceededError(f"orbit scan exceeded {budget} nodes")
                point[i] = v
                for k, _ in self.aggs_at[p]:
                    used[k] += v
                # equal values sit at the end of the class: grow the multinomial
                run_v = run + 1 if not first and v == lo else 1
                w = weight * (self.rank[p] + 1) // run_v
                rec(p + 1, v if self.same_later[p] else 1, w, run_v)
                for k, _ in self.aggs_at[p]:
                    used[k] -= v

        rec(0, 1, 1, 0)
        self.masks[N], self.hists[N] = masks, hist
        return len(masks)


def _degree_histogram(P: HPolytope, levels, budget: int, table_cap: int):
    """Exact {(N, r): count} of reduced degrees over the interior of N*P.

    Returns the histogram and the (members, scan) pair of every block.
    Identical block polytopes share one scan.
    """
    blocks = _structure(P).blocks
    scans: dict = {}
    parts = []
    for members in blocks:
        Q = _restrict(P, members)
        if Q.upper_facets not in scans:
            scans[Q.upper_facets] = _OrbitScan(Q, full=len(blocks) > 1)
        parts.append((members, scans[Q.upper_facets]))
    hist: dict[tuple[int, int], int] = {}
    held = 0
    for N in levels:
        # a split at r needs an interior point of r*P; the least candidate,
        # the all-ones point, settles whether there is one
        tests = tuple(r for r in range(1, N)
                      if all(len(A) <= r * t - 1 for A, t in P.upper_facets))
        combined = {(1 << N) - 1: 1}
        for _members, scan in parts:
            if N not in scan.hists:
                held += scan.scan_level(N, tests, budget, held, table_cap)
            nxt: dict[int, int] = {}
            for m1, c1 in combined.items():
                for m2, c2 in scan.hists[N].items():
                    nxt[m1 & m2] = nxt.get(m1 & m2, 0) + c1 * c2
            combined = nxt
            if not combined:  # a block without interior points at this level
                break
        for mask, count in combined.items():
            key = (N, (mask & -mask).bit_length())
            hist[key] = hist.get(key, 0) + count
    return hist, parts


class _DegreeTable(Mapping):
    """Read-only view (N, point) -> reduced degree >= 2 of a histogram scan.

    Its length comes from the histogram; a lookup reads the block
    representatives, and points are listed only when iterated.
    """

    def __init__(self, P: HPolytope, levels, parts, hist, budget: int):
        self._P, self._levels, self._parts, self._budget = P, levels, parts, budget
        self._len = sum(c for (_N, r), c in hist.items() if r >= 2)

    def __len__(self) -> int:
        return self._len

    def _degree(self, N: int, a: ExponentVector) -> int:
        mask = (1 << N) - 1
        for members, scan in self._parts:
            mask &= scan.masks[N][scan.key([a[i - 1] for i in members])]
        return (mask & -mask).bit_length()

    def __getitem__(self, key):
        try:
            N, a = key
            a = tuple(a)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if (N in self._levels and len(a) == self._P.n
                and membership(self._P, a, N, "interior")):
            r = self._degree(N, a)
            if r >= 2:
                return r
        raise KeyError(key)

    def __iter__(self):
        for N in self._levels:
            for a in iter_lattice_points(self._P, N, "interior", budget=self._budget):
                if self._degree(N, a) >= 2:
                    yield (N, a)


def level_star(P: HPolytope, max_level: int | None = None,
               budget: int = DEFAULT_NODE_BUDGET, *, _interior1: int | None = None):
    """Decide level*; returns (verdict, witness) with the lex-least failing
    (N, point) on the negative side, or (False, None) for empty interior."""
    if max_level is not None and max_level < 2:
        raise ValueError("max_level must be at least 2")
    if _interior1 is None:
        _interior1 = count_lattice_points(P, 1, "interior", budget=budget)
    if _interior1 == 0:
        return False, None
    st = _structure(P)
    top = max_level if max_level is not None else max(2, P.n - 1)
    for N in range(2, top + 1):
        w = _iter_failing(P, st, N, budget, collect=None, cap=None)
        if w is not None:
            return False, (N, w)
    return True, None


def _scan_degrees(P: HPolytope, max_level: int | None, budget: int,
                  table_cap: int, interior1: int | None = None):
    """Reduced degrees over the scanned dilation levels 2..top.

    Returns (max_degree, table, degrees).  `table` maps (N, point) to the
    reduced degree for every scanned point of degree >= 2 (degree-1 points
    are the generic case and are left implicit) and `degrees` is the set of
    those degrees.  `max_degree` is None when no scanned dilate, level 1
    included, has an interior point.
    """
    if max_level is not None and max_level < 1:
        raise ValueError("max_level must be at least 1")
    levels = range(2, (max_level if max_level is not None else max(1, P.n - 1)) + 1)
    if interior1 is None:
        interior1 = count_lattice_points(P, 1, "interior", budget=budget)
    if interior1 == 0:
        # no point of any dilate splits at r = 1, so every interior point
        # has degree >= 2: count them by block and twin orbit
        hist, parts = _degree_histogram(P, levels, budget, table_cap)
        degrees = {r for _N, r in hist if r >= 2}
        table = _DegreeTable(P, levels, parts, hist, budget)
        return max((r for _N, r in hist), default=None), table, degrees
    st = _structure(P)
    found: dict[tuple[int, ExponentVector], int] = {}
    for N in levels:
        failing: list = []
        _iter_failing(P, st, N, budget, collect=failing, cap=table_cap)
        for a in failing:
            r = 2
            while not _split_exists(st, a, N, r):
                r += 1
            found[(N, a)] = r
    degrees = set(found.values())
    return max(degrees, default=1), MappingProxyType(found), degrees


def int_star_degree(P: HPolytope, max_level: int | None = None,
                    budget: int = DEFAULT_NODE_BUDGET,
                    table_cap: int = DEFAULT_TABLE_CAP) -> int:
    """Largest reduced degree over dilation levels 1..max(1, n-1)."""
    max_degree, _table, _degrees = _scan_degrees(P, max_level, budget, table_cap)
    if max_degree is None:
        top = max_level if max_level is not None else max(1, P.n - 1)
        raise ValueError(f"empty interior: no dilate up to level {top} has interior points")
    return max_degree


def conjecture_spectrum(P: HPolytope, max_level: int | None = None,
                        budget: int = DEFAULT_NODE_BUDGET,
                        table_cap: int = DEFAULT_TABLE_CAP) -> bool:
    """With d the int* degree: is every degree 1 <= i < d realized in the scan?"""
    max_degree, _table, degrees = _scan_degrees(P, max_level, budget, table_cap)
    if max_degree is None:
        raise ValueError("empty interior: spectrum undefined")
    return all(i in degrees for i in range(2, max_degree))


@dataclass(frozen=True)
class LevelnessReport:
    """Verdicts and witnesses for one polytope.

    `reduced_degree_table` is a read-only mapping of the scanned points of
    reduced degree at least 2 to their degree; degree-1 points are
    ubiquitous and left implicit.  With an empty interior it is a lazy view
    of the degree histogram.  `failure_witness` carries (level, point,
    explanation) when level* fails with a witness; an empty interior fails
    without one.
    """

    n: int
    interior_count_1: int
    pseudo_gorenstein: bool
    level: bool
    reflexive_up_to_translation: bool | None
    int_star_degree: int | None
    failure_witness: tuple[int, ExponentVector, str] | None
    reduced_degree_table: Mapping[tuple[int, ExponentVector], int]
    conjecture_spectrum_holds: bool | None
    scan_bound: int


def analyze_polytope(P: HPolytope, max_level: int | None = None,
                     budget: int = DEFAULT_NODE_BUDGET,
                     table_cap: int = DEFAULT_TABLE_CAP) -> LevelnessReport:
    from .lattice import reflexive_up_to_translation

    interior1 = count_lattice_points(P, 1, "interior", budget=budget)
    pg = interior1 == 1
    reflexive = reflexive_up_to_translation(P, budget=budget) if pg else None
    level, witness = level_star(P, max_level=max_level, budget=budget, _interior1=interior1)
    if witness is not None:  # an empty interior fails without a pointwise witness
        witness = (witness[0], witness[1],
                   f"no interior summand of the base polytope splits off at level {witness[0]}")
    max_degree, table, degrees = _scan_degrees(P, max_level, budget, table_cap, interior1)
    spectrum = None if max_degree is None else all(i in degrees for i in range(2, max_degree))
    return LevelnessReport(
        n=P.n,
        interior_count_1=interior1,
        pseudo_gorenstein=pg,
        level=level,
        reflexive_up_to_translation=reflexive,
        int_star_degree=max_degree,
        failure_witness=witness,
        reduced_degree_table=table,
        conjecture_spectrum_holds=spectrum,
        scan_bound=max_level if max_level is not None else max(2, P.n - 1),
    )
