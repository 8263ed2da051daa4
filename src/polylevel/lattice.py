"""Lattice points of dilates, Ehrhart data, normality and reflexivity tests.

All bodies here are HPolytope instances: x >= 0 plus 0/1-normal upper
facets with integer bounds.  The N-fold dilate is therefore again given by
the same normals with bounds scaled by N, and a lattice point is interior
to the dilate exactly when every listed inequality is strict (for a
full-dimensional polytope a valid inequality can be tight only on a proper
face, and redundant inequalities are tight somewhere too, so they never
exclude a true interior point).

`_structure` is the one place where a facet system is split into
per-coordinate caps (the singleton facets) and aggregate facets (|A| >= 2),
with the aggregates through each coordinate, the product blocks and the
laminar forest; it is cached per polytope, and counting, enumeration and
the splitting scans of `levelness` all read it.  Only per-point checks
(`membership`, `_greedy_summand`, the reflexivity slack test) and the
naive `oracle` read the facets directly.

Counting uses a coordinate-by-coordinate dynamic program whose state is
the vector of partial sums of the aggregate facets.  Enumeration is plain
recursive descent with partial-sum pruning, adequate at desk scale; both
paths use exact Python integers throughout.

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
from math import comb

from .errors import BudgetExceededError
from .polymatroid import HPolytope

ExponentVector = tuple[int, ...]

DEFAULT_NODE_BUDGET = 10**8


def membership(P: HPolytope, x, N: int = 1, region: str = "full") -> bool:
    """Is x a lattice point of N*P (or of its interior)?"""
    x = tuple(x)
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


def _check_region(region: str) -> None:
    if region not in ("full", "interior"):
        raise ValueError(f"region must be 'full' or 'interior', got {region!r}")


@dataclass(frozen=True)
class _Structure:
    """The facet system split into singleton caps and aggregate facets.

    `after[k][i]` counts the members of aggregate k above coordinate i+1.
    Blocks are the connected components of the aggregate supports, least
    member first; a coordinate in no aggregate is a block of its own.  When
    the aggregates form a laminar family (pairwise disjoint or nested),
    `forest` holds per aggregate its child aggregates and `own` the member
    coordinates not covered by a child; aggregates are sorted by (size,
    members), so children come first.
    """

    n: int
    u: tuple[int | None, ...]              # tightest singleton bound per coordinate
    aggs: tuple[tuple[tuple[int, ...], int], ...]
    agg_at: tuple[tuple[int, ...], ...]    # per coordinate: aggregates through it
    after: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]
    disjoint: bool
    laminar: bool
    forest: tuple[tuple[int, ...], ...]
    own: tuple[tuple[int, ...], ...]


# One request counts, enumerates and scans the same hull and its block
# polytopes many times; the cache lets those calls share one structure.
# Small on purpose: a request needs the hull and its few distinct block
# polytopes, and a larger cache would keep earlier requests' structures.
_STRUCTURE_CACHE_SIZE = 16


@lru_cache(maxsize=_STRUCTURE_CACHE_SIZE)
def _structure(P: HPolytope) -> _Structure:
    n = P.n
    u: list[int | None] = [None] * n
    aggs = []
    for A, t in P.upper_facets:
        if len(A) == 1:
            i = A[0] - 1
            if u[i] is None or t < u[i]:
                u[i] = t
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
    disjoint = laminar = True
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                disjoint = False
                if not (sets[i] <= sets[j] or sets[j] <= sets[i]):
                    laminar = False
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
                      disjoint=disjoint, laminar=laminar,
                      forest=tuple(forest), own=tuple(own))


def iter_lattice_points(P: HPolytope, N: int, region: str = "full",
                        budget: int = DEFAULT_NODE_BUDGET):
    """Yield lattice points of N*P (or its interior) in lex order.

    Raises BudgetExceededError after more than `budget` visited nodes.
    """
    _check_region(region)
    if N < 1:
        raise ValueError("dilation level must be >= 1")
    st = _structure(P)
    lo = 0 if region == "full" else 1  # interior: x_i >= 1, every bound less 1
    caps = [None if u is None else N * u - lo for u in st.u]
    limits = [N * t - lo for _A, t in st.aggs]
    agg_at, after = st.agg_at, st.after
    n = P.n
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
                raise BudgetExceededError(f"enumeration exceeded {budget} nodes")
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
    """|N*P ∩ Z^n| (or the interior count); N = 0 counts 1 resp. 0."""
    _check_region(region)
    if N < 0:
        raise ValueError("dilation level must be >= 0")
    if N == 0:
        return 1 if region == "full" else 0
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
            raise BudgetExceededError(f"counting exceeded {budget} states")
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


def _greedy_summand(P: HPolytope, a: ExponentVector, N: int) -> ExponentVector | None:
    """A lattice point p of P with p <= a and a - p in (N-1)*P, or None.

    Greedy: clamp a into the box, then shrink coordinates of violated
    aggregate facets no further than the remainder constraints allow.
    """
    n = P.n
    flo = [0] * n
    p = list(a)
    for A, t in P.upper_facets:
        if len(A) == 1:
            i = A[0] - 1
            if p[i] > t:
                p[i] = t
            f = a[i] - (N - 1) * t
            if f > flo[i]:
                flo[i] = f
    for A, t in P.upper_facets:
        excess = sum(p[i - 1] for i in A) - t
        if excess <= 0:
            continue
        for i in sorted(A, key=lambda i: -p[i - 1]):
            give = min(excess, p[i - 1] - flo[i - 1])
            if give > 0:
                p[i - 1] -= give
                excess -= give
            if excess == 0:
                break
        if excess > 0:
            return None
    q = tuple(x - y for x, y in zip(a, p))
    if membership(P, p, 1, "full") and (
        N == 1 and all(v == 0 for v in q) or N > 1 and membership(P, q, N - 1, "full")
    ):
        return tuple(p)
    return None


def normality_check(P: HPolytope, max_n: int, budget: int = DEFAULT_NODE_BUDGET):
    """Does every lattice point of N*P split into N points of P, N <= max_n?

    Checks level by level: once level N-1 is verified, a point of N*P
    decomposes iff it is p + q with p a point of P and q a point of
    (N-1)*P, so a membership test replaces the explicit sumset.  Returns
    (True, None) or (False, (N, witness_point)).
    """
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    S1 = lattice_points(P, 1, "full", budget=budget)
    # descending coordinate sums: large summands leave small remainders
    S1_desc = sorted(S1, key=lambda p: (-sum(p), p))
    for N in range(2, max_n + 1):
        for a in iter_lattice_points(P, N, "full", budget=budget):
            if _greedy_summand(P, a, N) is not None:
                continue
            ok = False
            for p in S1_desc:
                if all(pi <= ai for pi, ai in zip(p, a)) and membership(
                    P, tuple(ai - pi for ai, pi in zip(a, p)), N - 1, "full"
                ):
                    ok = True
                    break
            if not ok:
                return False, (N, a)
    return True, None


def reflexive_up_to_translation(P: HPolytope, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Unique interior lattice point at lattice distance 1 from every facet.

    All normals here are 0/1 vectors, hence primitive, so the lattice
    distance of the interior point from a facet is the plain slack.
    """
    interior = lattice_points(P, 1, "interior", budget=budget)
    if len(interior) != 1:
        raise ValueError(
            f"not pseudo-Gorenstein*: interior count is {len(interior)}, need exactly 1"
        )
    p = interior[0]
    if any(v != 1 for v in p):
        return False
    return all(t - sum(p[i - 1] for i in A) == 1 for A, t in P.upper_facets)
