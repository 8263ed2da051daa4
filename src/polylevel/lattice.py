"""Lattice points of dilates, Ehrhart data, normality and reflexivity tests.

All bodies here are HPolytope instances: x >= 0 plus 0/1-normal upper
facets with integer bounds.  The N-fold dilate is therefore again given by
the same normals with bounds scaled by N, and a lattice point is interior
to the dilate exactly when every listed inequality is strict (on a
full-dimensional polytope a valid inequality is strict at every interior
point, as no linear function is constant on an open set; a redundant
inequality is valid too, so it never excludes an interior point).

Pseudo-Gorenstein* and reflexivity from the gaps.  The gap of a listed
inequality (A, t) is t - |A|, the slack of the all-ones point, and the
interior lattice points are closed downwards within x >= 1.  So P has
exactly one, the all-ones point, when every gap is at least 1 and every
coordinate lies on an inequality of gap 1, which keeps each 1 + e_i out
(`pseudo_gorenstein_star`); this holds for any listing of P.  Such a P
is reflexive up to translation exactly when the all-ones point is at
lattice distance 1, its gap (0/1 normals are primitive), from every
facet, while a redundant inequality may have any gap (`_unit_gaps`).  A
`Polymatroid` lists only facets.  In a laminar listing an inequality
(A, t), the only one with its normal, is a facet exactly when the others
do not imply it, that is when t < min(b(A), a(A)), with the coordinates
outside A at 0: x(A) reaches b(A) under the inequalities inside A, the
sum over the children C of A of min(t_C, b(C)) plus the caps of the
members A owns (infinite for an uncapped member, and for a singleton A),
and a(A) is the least bound of an inequality strictly containing A.

`_structure` is the one place where a facet system is split into
per-coordinate caps (the singleton facets) and aggregate facets (|A| >= 2),
with the aggregates through each coordinate, the product blocks and the
laminar forest; it is cached per polytope, as many as the answer memos
keep, and counting, enumeration, the split tests and the scans of
`levelness` all read it.  It is the only code
that tells singleton facets apart: the per-point checks (`membership`, the
pseudo-Gorenstein* gap rule) and the naive `oracle` read every facet alike.

Split tests in closed form.  Normality and the level* and reduced-degree
scans ask one question of a lattice point a of N*P: is a = a0 + a' with
a0 a lattice point of r*P and a' one of (N-r)*P?  The summand has a
`slack`: 1 when a0 must be interior to r*P (the scans of `levelness`), 0
when any lattice point of r*P will do (normality, at r = 1), the same
convention as `lo` in the counting and enumeration below.  A candidate
summand is constrained per coordinate to the window

    max(slack, a_i - (N-r) u_i)  <=  a0_i  <=  min(a_i, r u_i - slack)

(u_i the singleton bound, absent terms dropped) and per aggregate facet
(A, t) to  sum_A a - (N-r) t <= sum_A a0 <= r t - slack.  Laminar
families (aggregates pairwise disjoint or nested) use an exact interval
propagation from the innermost aggregates out; with pairwise disjoint
aggregates it is a per-aggregate interval intersection.  Anything else
falls back to an explicit depth-first search per point.

Normality in closed form.  Let the 0/1 upper rows form a laminar family
(any two supports disjoint or nested; singleton caps always qualify).
Listing the coordinates in a depth-first order of the laminar forest
makes every support an interval, so the rows form an interval matrix,
which is totally unimodular, and stacking -I under it (x >= 0) keeps it
so (Schrijver, Theory of Linear and Integer Programming, 1986).  A TU
system with an integral right-hand side has the integer decomposition
property: every lattice point of N*P is a sum of N lattice points of P,
for every N (Baum-Trotter, Integer rounding and polyhedral decomposition
for totally unimodular systems, 1978).  So has every integral
polymatroid (Herzog-Hibi, Discrete polymatroids, 2002), such as every
hull and box-and-cutoff polytope (the type `polymatroid.Polymatroid`,
the one that may hold crossing aggregates).  So every polytope the
package accepts is normal, and `normality_check` scans nothing.

Counting by blocks.  Every facet lives in one block, so N*P and its
interior are products of the block dilates (the product separability of
the `levelness` docstring) and the count is a product over blocks.  In a
laminar system each block is one coordinate or the tree of one root
aggregate.  A lone coordinate with its cap u holds N u - 2 lo + 1 points
(lo = 0 for N*P, 1 for the interior).  A root (A, t) with m members and
no child aggregate is counted in closed form: in y = x - lo it is
y >= 0, y_i <= d_i = N u_i - 2 lo for the capped members,
sum y <= R = N t - lo - m lo, compositions with upper bounds, counted by
inclusion-exclusion over the capped members (Stanley, Enumerative
Combinatorics I, sections 1.9 and 2.1),

    sum_w c_w binom(R - w + m, m),   sum_w c_w z^w = prod (1 - z^(d_i+1)),

the terms grouped by overshoot w <= R.  A root with children is counted
by one pass over its laminar forest, children first.  The children and
the owned coordinates of an aggregate (A, t) are constrained
independently, so the generating polynomial of sum_A x is the product of
the children's polynomials and of one indicator of [lo, N u_i - lo] per
owned coordinate, truncated at degree N t - lo.  The block count is the
sum of the root's coefficients.  Only crossing aggregates are counted by
`_count_dp`, a coordinate-by-coordinate dynamic program whose state is
the vector of partial sums of the aggregate facets.
Enumeration is plain recursive descent with partial-sum pruning,
adequate at desk scale; all paths use exact Python integers.

The Ehrhart counts i(P, N) for N = 0..n determine the delta vector

    delta_k = sum_{j=0..k} (-1)^j binom(n+1, j) i(P, k-j),

the coefficient vector of (1 - lambda)^{n+1} times the Ehrhart series.
`delta_vector` cross-checks delta_n against the interior count at N = 1
(an Ehrhart reciprocity consequence) instead of assuming it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb, inf

from .bounded import _MEMO_SIZE, _cap, _integer, _integers
from .errors import BudgetExceededError
from .polymatroid import HPolytope, _crossing

ExponentVector = tuple[int, ...]

DEFAULT_NODE_BUDGET = 10**8


def membership(P: HPolytope, x, N: int = 1, region: str = "full") -> bool:
    """Is x a lattice point of N*P (or of its interior)?  N is an integer
    >= 0 and x holds integers; anything else raises ValueError."""
    N = _dilation(N)
    x = _integers(x, "point")
    if len(x) != P.n:
        raise ValueError(f"point has length {len(x)}, polytope dimension is {P.n}")
    _check_region(region)
    lo = 0 if region == "full" else 1
    if any(v < lo for v in x):
        return False
    slack = 0 if region == "full" else 1
    for A, t in P.upper_facets:
        if sum(x[i - 1] for i in A) > N * t - slack:
            return False
    return True


def _dilation(N) -> int:
    """N as an int >= 0."""
    N = _integer(N, "dilation level")
    if N < 0:
        raise ValueError("dilation level must be >= 0")
    return N


def _check_region(region: str) -> None:
    if region not in ("full", "interior"):
        raise ValueError(f"region must be 'full' or 'interior', got {region!r}")


@dataclass(frozen=True)
class _Structure:
    """The facet system split into singleton caps and aggregate facets.

    `after[k][i]` counts the members of aggregate k above coordinate i+1.
    Blocks are the connected components of the aggregate supports, least
    member first; a coordinate in no aggregate is a block of its own.
    Every facet lives in one block, so P is the product of its block
    polytopes, and counting and `levelness` work block by block.  When the
    aggregates form a laminar family (pairwise disjoint or nested),
    `forest` holds per aggregate its child aggregates and `own` the member
    coordinates not covered by a child; aggregates are sorted by (size,
    members), so children come first.
    """

    n: int
    u: tuple[int | None, ...]              # the singleton bound per coordinate
    aggs: tuple[tuple[tuple[int, ...], int], ...]
    agg_at: tuple[tuple[int, ...], ...]    # per coordinate: aggregates through it
    after: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]
    laminar: bool
    forest: tuple[tuple[int, ...], ...]
    own: tuple[tuple[int, ...], ...]


# kept as long as the answers: a repeated hull's points are enumerated again
@lru_cache(maxsize=_MEMO_SIZE)
def _structure(P: HPolytope) -> _Structure:
    n = P.n
    u: list[int | None] = [None] * n
    aggs = []
    for A, t in P.upper_facets:
        if len(A) == 1:  # HPolytope admits one facet per subset
            u[A[0] - 1] = t
        else:
            aggs.append((A, t))
    aggs.sort(key=lambda at: (len(at[0]), at[0]))
    agg_at: list[list[int]] = [[] for _ in range(n)]
    for k, (A, _t) in enumerate(aggs):
        for i in A:
            agg_at[i - 1].append(k)
    after = tuple(tuple(len(A) - bisect_right(A, i) for i in range(1, n + 1))
                  for A, _t in aggs)
    # blocks: label each coordinate by the least coordinate it is joined to
    label = list(range(1, n + 1))
    for A, _t in aggs:
        merged = {label[i - 1] for i in A}
        least = min(merged)
        label = [least if x in merged else x for x in label]
    blocks: dict[int, list[int]] = {}
    for i, x in enumerate(label, 1):
        blocks.setdefault(x, []).append(i)

    sets = [frozenset(A) for A, _ in aggs]
    laminar = _crossing(sets) is None
    forest: list[tuple[int, ...]] = [()] * len(aggs)
    own: list[tuple[int, ...]] = [A for A, _ in aggs]
    if laminar:
        children: list[list[int]] = [[] for _ in aggs]
        for k in range(len(aggs)):
            # the supersets of a laminar member form a chain, so the first
            # one in size order is its parent
            parent = next((m for m in range(k + 1, len(aggs)) if sets[k] < sets[m]), None)
            if parent is not None:
                children[parent].append(k)
        forest = [tuple(ch) for ch in children]
        own = [tuple(sorted(sets[k].difference(*(sets[ch] for ch in forest[k]))))
               for k in range(len(aggs))]
    return _Structure(n=n, u=tuple(u), aggs=tuple(aggs),
                      agg_at=tuple(map(tuple, agg_at)), after=after,
                      blocks=tuple(map(tuple, blocks.values())),
                      laminar=laminar,
                      forest=tuple(forest), own=tuple(own))


def _window(st: _Structure, a: ExponentVector, N: int, r: int,
            slack: int) -> tuple[list[int], list[int]] | None:
    """Per-coordinate bounds (lo, hi) on the summand, or None if one is empty."""
    wlo, whi = [], []
    for a_i, u_i in zip(a, st.u):
        lo, hi = slack, a_i
        if u_i is not None:
            lo = max(lo, a_i - (N - r) * u_i)
            hi = min(hi, r * u_i - slack)
        if lo > hi:
            return None
        wlo.append(lo)
        whi.append(hi)
    return wlo, whi


def _split_feasible_laminar(st: _Structure, a: ExponentVector, N: int, r: int,
                            slack: int) -> bool:
    """Split-existence for a laminar aggregate family.

    Interval propagation leaf-to-root: the achievable sum range of an
    aggregate is the sum of its children's clipped ranges plus the
    coordinate windows it owns, clipped to its own window; sums of
    contiguous integer ranges over disjoint parts stay contiguous, so the
    propagation is exact.
    """
    w = _window(st, a, N, r, slack)
    if w is None:
        return False
    wlo, whi = w
    k_lo = [0] * len(st.aggs)
    k_hi = [0] * len(st.aggs)
    # kept beside the DFS for speed: the walks behind the degree table's
    # length (`levelness._block_splits`) test every interior point, and with
    # the DFS alone `test_relabelled_hull_gets_its_own_report` took 9.9 s
    # against 5.8 s (hypothesis seed 0, a shared 2-vCPU Xeon host)
    for k, (A, t) in enumerate(st.aggs):  # sorted by size: children first
        lo = hi = s_a = 0
        for ch in st.forest[k]:
            lo += k_lo[ch]
            hi += k_hi[ch]
        for i in st.own[k]:
            lo += wlo[i - 1]
            hi += whi[i - 1]
        for i in A:
            s_a += a[i - 1]
        lo = max(lo, s_a - (N - r) * t)
        hi = min(hi, r * t - slack)
        if lo > hi:
            return False
        k_lo[k] = lo
        k_hi[k] = hi
    return True


def _split_exists_dfs(st: _Structure, a: ExponentVector, N: int, r: int,
                      slack: int) -> bool:
    """Split-existence by depth-first search; valid for any facet structure."""
    w = _window(st, a, N, r, slack)
    if w is None:
        return False
    wlo, whi = w
    n = st.n
    aggs = []
    for A, t in st.aggs:
        s_a = sum(a[i - 1] for i in A)
        need = s_a - (N - r) * t          # lower bound on the summand's A-sum
        cap = r * t - slack               # upper bound
        suf_lo = [0] * (n + 1)
        suf_hi = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            inA = (i + 1) in A
            suf_lo[i] = suf_lo[i + 1] + (wlo[i] if inA else 0)
            suf_hi[i] = suf_hi[i + 1] + (whi[i] if inA else 0)
        aggs.append((need, cap, suf_lo, suf_hi))

    def rec(i: int, used: list[int]) -> bool:
        if i == n:
            return all(used[k] >= aggs[k][0] for k in range(len(aggs)))
        lo, hi = wlo[i], whi[i]
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


def _split_exists(st: _Structure, a: ExponentVector, N: int, r: int, slack: int) -> bool:
    """Is a = a0 + a' with a0 in r*P (interior for slack 1) and a' in (N-r)*P?"""
    if st.laminar:
        return _split_feasible_laminar(st, a, N, r, slack)
    return _split_exists_dfs(st, a, N, r, slack)


def iter_lattice_points(P: HPolytope, N: int, region: str = "full",
                        budget: int = DEFAULT_NODE_BUDGET):
    """Lattice points of N*P (or its interior) in lex order, as a
    generator; N = 0 gives the origin alone, and no interior point.

    The arguments are checked at the call; iterating raises
    BudgetExceededError after more than `budget` visited nodes.  An
    interior failing the all-ones test `_interior_at` builds no structure.
    """
    _check_region(region)
    N = _dilation(N)
    budget = _cap(budget, "budget")
    return _points(P, N, region, budget)


def _interior_at(P: HPolytope, r: int) -> bool:
    """Has r*P an interior lattice point?  The interior points are closed
    downwards within x >= 1, so the all-ones point decides."""
    return all(len(A) <= r * t - 1 for A, t in P.upper_facets)


def _points(P: HPolytope, N: int, region: str, budget: int):
    """The generator behind `iter_lattice_points`, its arguments checked."""
    lo = 0 if region == "full" else 1  # interior: x_i >= 1, every bound less 1
    if lo and not _interior_at(P, N):
        return
    st = _structure(P)
    caps = [None if u is None else N * u - lo for u in st.u]
    limits = [N * t - lo for _A, t in st.aggs]
    agg_at, after = st.agg_at, st.after
    n = st.n
    point = [0] * n
    used = [0] * len(limits)
    nodes = 0

    def rec(i: int):
        nonlocal nodes
        if i == n:
            yield tuple(point)
            return
        hi = caps[i]
        for k in agg_at[i]:
            room = limits[k] - used[k] - lo * after[k][i]
            hi = room if hi is None else min(hi, room)
        if hi is None:  # unreachable: HPolytope validation guarantees coverage
            raise RuntimeError(f"coordinate {i + 1} has no finite bound")
        for v in range(lo, hi + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"enumeration exceeded {budget} nodes",
                                          cap="budget", limit=budget)
            point[i] = v
            for k in agg_at[i]:
                used[k] += v
            yield from rec(i + 1)
            for k in agg_at[i]:
                used[k] -= v
    yield from rec(0)


def lattice_points(P: HPolytope, N: int, region: str = "full",
                   budget: int = DEFAULT_NODE_BUDGET) -> list[ExponentVector]:
    return list(iter_lattice_points(P, N, region, budget=budget))


def count_lattice_points(P: HPolytope, N: int, region: str = "full",
                         budget: int = DEFAULT_NODE_BUDGET) -> int:
    """|N*P ∩ Z^n| (or the interior count); N = 0 counts 1 resp. 0.

    A laminar system (every box-and-cutoff polytope, every graph hull whose
    aggregate facets are disjoint or nested) is counted as a product over
    its blocks as in the module docstring; one `budget` state there is one
    single-coordinate block, one entry of a childless root's overshoot
    table or one entry of a list of the laminar-forest pass.  Crossing
    aggregates go through `_count_dp`, where one state is one memoised
    (coordinate, partial sums) pair.  Either way more than `budget` states
    raise BudgetExceededError.
    """
    _check_region(region)
    N = _dilation(N)
    budget = _cap(budget, "budget")
    if N == 0:
        return 1 if region == "full" else 0
    st = _structure(P)
    if not st.laminar:
        return _count_dp(P, N, region, budget)
    lo = 0 if region == "full" else 1  # interior: x_i >= 1, every bound less 1
    total, states = 1, 0
    for block in st.blocks:
        ks = st.agg_at[block[0] - 1]  # a chain, the block's root last
        if not ks:  # one coordinate, bounded by its cap alone
            count, table = max(0, N * st.u[block[0] - 1] - 2 * lo + 1), 1
        elif st.forest[ks[-1]]:
            count, table = _forest_block_count(st, ks[-1], N, lo)
        else:
            count, table = _aggregate_block_count(st, *st.aggs[ks[-1]], N, lo)
        states += table
        if states > budget:
            raise BudgetExceededError(f"counting exceeded {budget} states",
                                      cap="budget", limit=budget)
        total *= count
    return total


def _aggregate_block_count(st: _Structure, A: tuple[int, ...], t: int, N: int,
                           lo: int) -> tuple[int, int]:
    """Lattice points of the block of one aggregate (A, t), by inclusion-
    exclusion over its capped members, and the size of the overshoot table."""
    m = len(A)
    # y = x - lo: y >= 0, y_i <= d_i where capped, sum_A y <= R
    R = N * t - lo - m * lo
    if R < 0:
        return 0, 0
    coef = {0: 1}  # Π (1 - z^(d_i+1)) over the capped members, degree <= R
    for i in A:
        if st.u[i - 1] is None:
            continue
        d = N * st.u[i - 1] - 2 * lo
        if d < 0:
            return 0, 0
        nxt = dict(coef)
        for w, c in coef.items():
            if w + d + 1 <= R:
                nxt[w + d + 1] = nxt.get(w + d + 1, 0) - c
        coef = nxt
    return sum(c * comb(R - w + m, m) for w, c in coef.items()), len(coef)


def _forest_block_count(st: _Structure, root: int, N: int, lo: int) -> tuple[int, int]:
    """Lattice points of the block of a root aggregate with child aggregates,
    by one pass over its laminar forest, and the number of list entries."""
    entries = 0

    def sums(k: int) -> list[int]:
        # f[s]: the ways the members of aggregate k sum to s <= N t - lo
        nonlocal entries
        L = N * st.aggs[k][1] - lo
        f = [1]
        for ch in st.forest[k]:
            g = sums(ch)
            h = [0] * max(0, min(L + 1, len(f) + len(g) - 1))
            for j, c in enumerate(f):
                for s, d in enumerate(g[:len(h) - j], j):
                    h[s] += c * d
            f = h
        for i in st.own[k]:  # convolve with the indicator of [lo, hi]
            u = st.u[i - 1]
            hi = L if u is None else N * u - lo
            top, pre = len(f) - 1, [0, *accumulate(f)]
            f = [pre[min(s - lo, top) + 1] - pre[max(s - hi, 0)] if s >= lo else 0
                 for s in range(min(L, top + hi) + 1)] if hi >= lo else []
        entries += len(f)
        return f

    return sum(sums(root)), entries


def _count_dp(P: HPolytope, N: int, region: str = "full",
              budget: int = DEFAULT_NODE_BUDGET) -> int:
    """`count_lattice_points` by a dynamic program, valid for any facet
    system; `count_lattice_points` calls it only for crossing ones.

    Coordinate by coordinate, the state is the vector of partial sums of
    the aggregate facets; one budget state is one memoised state.
    """
    st = _structure(P)
    lo = 0 if region == "full" else 1  # interior: x_i >= 1, every bound less 1
    caps = [None if u is None else N * u - lo for u in st.u]
    limits = [N * t - lo for _A, t in st.aggs]
    agg_at, after = st.agg_at, st.after
    n = P.n
    memo: dict = {}
    nodes = 0

    def rec(i: int, used: tuple[int, ...]) -> int:
        nonlocal nodes
        if i == n:
            return 1
        key = (i, used)
        got = memo.get(key)
        if got is not None:
            return got
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"counting exceeded {budget} states",
                                      cap="budget", limit=budget)
        hi = caps[i]
        for k in agg_at[i]:
            room = limits[k] - used[k] - lo * after[k][i]
            hi = room if hi is None else min(hi, room)
        total = 0
        for v in range(lo, hi + 1):
            nxt = list(used)
            for k in agg_at[i]:
                # an aggregate ends at its last member: drop it from the key
                # for better memo reuse
                nxt[k] = nxt[k] + v if after[k][i] else 0
            total += rec(i + 1, tuple(nxt))
        memo[key] = total
        return total

    return rec(0, (0,) * len(limits))


@dataclass(frozen=True)
class DeltaVector:
    """Ehrhart counts i(P, N) for N = 0..n and the derived coefficients."""

    n: int
    counts: tuple[int, ...]
    delta: tuple[int, ...]

    @property
    def normalized_volume(self) -> int:
        return sum(self.delta)


def delta_vector(P: HPolytope, budget: int = DEFAULT_NODE_BUDGET) -> DeltaVector:
    """The Ehrhart counts i(P, N) for N = 0..n and the delta vector.

    Also counts the interior of P (N = 1) to check delta_n against it, as
    in the module docstring; `budget` bounds each of these n + 2 counts
    separately.  Answers are memoized by (P's first hull, budget) however
    they are passed, and that hull is counted (the `polymatroid`
    docstring); a raised error is not kept.
    """
    return _delta_vector(P.first or P, _cap(budget, "budget"))


@lru_cache(maxsize=_MEMO_SIZE)
def _delta_vector(P: HPolytope, budget: int) -> DeltaVector:
    n = P.n
    counts = tuple(count_lattice_points(P, N, "full", budget=budget) for N in range(n + 1))
    delta = tuple(
        sum((-1) ** j * comb(n + 1, j) * counts[k - j] for j in range(k + 1))
        for k in range(n + 1)
    )
    if delta[0] != 1 or any(d < 0 for d in delta):
        raise RuntimeError(f"inconsistent delta vector {delta} (internal error)")
    interior1 = count_lattice_points(P, 1, "interior", budget=budget)
    if delta[n] != interior1:
        raise RuntimeError(
            f"delta_n = {delta[n]} disagrees with interior count {interior1} (internal error)"
        )
    return DeltaVector(n=n, counts=counts, delta=delta)


def is_unimodal(d) -> bool:
    """Weakly rises up to a middle index, then weakly falls.

    The peak may sit at floor(n/2) or ceil(n/2); for odd n both middle
    positions occur among delta vectors of level polytopes, so either one
    qualifies (they coincide for even n).
    """
    seq = tuple(d.delta) if isinstance(d, DeltaVector) else tuple(d)
    n = len(seq) - 1

    def peaked_at(mid: int) -> bool:
        return all(seq[i] <= seq[i + 1] for i in range(mid)) and all(
            seq[i] >= seq[i + 1] for i in range(mid, n)
        )

    return peaked_at(n // 2) or peaked_at((n + 1) // 2)


def normality_check(P: HPolytope, max_n: int):
    """Does every lattice point of N*P split into N points of P, N <= max_n?

    Returns (True, None), as `_normality_scan` would, without enumeration:
    every polytope the package accepts has the integer decomposition
    property, being an integral polymatroid (Herzog-Hibi 2002) or laminar
    (Baum-Trotter 1978; the module docstring).  `max_n` must be an integer
    >= 2.
    """
    if _integer(max_n, "max_n") < 2:
        raise ValueError("max_n must be >= 2")
    return True, None


def _normality_scan(P: HPolytope, max_n: int):
    """`normality_check` by enumerating N*P, for any facet system: (True,
    None) or (False, (N, point)), the lex-least point of the first level
    that fails.  It referees the theorem in acceptance check A14.

    Checks level by level: once level N-1 is verified, a point of N*P
    decomposes iff it is p + q with p a point of P and q a point of
    (N-1)*P, so the split test with slack 0 at r = 1 replaces the explicit
    sumset.  A point decomposes exactly when each of its block parts does,
    and a lone coordinate always does, so each other block is walked: the
    lex-least failing point is the least, over the failing blocks, of the
    point that is 0 outside the block and its lex-least failing part
    inside (the argument of `levelness._witness`, with 0 for 1).
    """
    blocks = [(b, _restrict(P, b)) for b in _structure(P).blocks if len(b) > 1]
    for N in range(2, max_n + 1):
        failing = []
        for block, Q in blocks:
            st = _structure(Q)
            part = next((a for a in iter_lattice_points(Q, N, "full")
                         if not _split_exists(st, a, N, 1, 0)), None)
            if part is not None:
                at = dict(zip(block, part))
                failing.append(tuple(at.get(i, 0) for i in range(1, P.n + 1)))
        if failing:
            return False, (N, min(failing))
    return True, None


def _restrict(P: HPolytope, members: tuple[int, ...]) -> HPolytope:
    """The block polytope: the facets supported in `members`, renumbered
    1..; it keeps the type of P, as a block of a `Polymatroid` is one."""
    local = {v: k for k, v in enumerate(members, 1)}
    return type(P)(len(members), tuple(
        (tuple(local[i] for i in A), t) for A, t in P.upper_facets if A[0] in local
    ))


def pseudo_gorenstein_star(P: HPolytope) -> bool:
    """Exactly one interior lattice point?  The module docstring's gap rule."""
    gaps = [(A, t - len(A)) for A, t in P.upper_facets]
    return (all(g >= 1 for _A, g in gaps)
            and len({i for A, g in gaps if g == 1 for i in A}) == P.n)


def reflexive_up_to_translation(P: HPolytope) -> bool:
    """Unique interior lattice point at lattice distance 1 from every facet,
    read off the gaps (the module docstring); ValueError unless pseudo-Gorenstein*."""
    if not pseudo_gorenstein_star(P):
        raise ValueError("not pseudo-Gorenstein*: no or more than one interior lattice point")
    return _unit_gaps(P)


def _unit_gaps(P: HPolytope) -> bool:
    """Has every facet of P gap 1?  A crossing listing is a `Polymatroid`,
    which lists only facets; in a laminar one (A, t) is a facet when
    t < min(b(A), a(A)), the module docstring's bounds, read off the
    forest of `_structure`."""
    st = _structure(P)
    facets = P.upper_facets
    if st.laminar:
        b: list[float] = []
        for k in range(len(st.aggs)):           # children first
            b.append(sum(min(st.aggs[ch][1], b[ch]) for ch in st.forest[k])
                     + sum(st.u[i - 1] or inf for i in st.own[k]))
        a = [inf] * len(st.aggs)
        for k in reversed(range(len(st.aggs))):     # parents first
            for ch in st.forest[k]:
                a[ch] = min(st.aggs[k][1], a[k])
        facets = [(A, t) for (A, t), b_k, a_k in zip(st.aggs, b, a) if t < min(b_k, a_k)]
        facets += [((i,), u) for i, u in enumerate(st.u, 1)
                   if u is not None and all(u < st.aggs[k][1] for k in st.agg_at[i - 1])]
    return all(t - len(A) == 1 for A, t in facets)
