"""Closed-form levelness and pseudo-Gorenstein* criteria, plus searches.

Each criterion here is a purely arithmetic test; the suite cross-validates
every one of them against the direct polytope computations.

Complete bipartite graphs.  Index the heavy side as [m] (strictly larger
bound sum) and write R for the bound sum of the small side; every heavy
bound must satisfy c_i <= R.  With A = {i in [m] : c_i = R} and
B = [m] \\ A, the hull polytope is the box over B and the small side,
unbounded-above coordinates over A, and one aggregate inequality
x_1 + ... + x_m <= R.  The interior is nonempty iff all bounds off A are
at least 2 and R >= m + 1, and levelness fails exactly when some subset
obstruction fires:

  (1)  some nonempty X within B has   R < sum_X c_i < R - m + 2|X| - 1,
  (2)  some nonempty X within [m] has
         sum_[m] c_i - sum_X c_i < R <= 2|X| + sum_[m] c_i - sum_X c_i - m.

Under the interior hypotheses an X that meets A never passes (1): one
member has bound R and the others at least 2, so sum_X c_i >= R + 2|X| - 2,
above the upper end of (1).  So (1) may run over every X within [m].

Polytopes of Veronese type (box c truncated by a full-sum bound a) carry
the analogous obstruction test over subsets of [n]; for uniform bounds it
collapses to membership of `a` in an explicit union of integer intervals
(empty intervals, lower end above upper end, are treated as empty).

Pseudo-Gorenstein* from the bases.  The hull is the polymatroid
P = {x >= 0 : x(X) <= rank(X)}, and an integer point lies in P exactly
when some basis is at least as large in every coordinate (Herzog-Hibi,
Discrete polymatroids, 2002).  An integer x is interior iff x >= 1 and
x(X) <= rank(X) - 1 for every nonempty X (each inequality is valid and
tight somewhere, facet or not), i.e. iff x >= 1 and x + e_j lies in P
for every j.  So the interior points are closed downwards within x >= 1,
and there is exactly one, the all-ones point, when
  - 1 is interior: for every j some basis is >= 1 + e_j, and
  - no 1 + e_i is interior: for every i some j has no basis
    >= 1 + e_i + e_j.
Only bases >= 1 matter.  For one such basis b with T = {k : b_k >= 2},
b >= 1 + e_j iff j in T, and b >= 1 + e_i + e_j iff i, j in T with
i != j, or i = j and b_i >= 3.

Trees admit a bound vector with a pseudo-Gorenstein* hull exactly when no
two leaves sit at distance 2, with the all-twos vector as witness; for
complete bipartite graphs the side sizes must satisfy n <= m <= 2n - 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bounded import DEFAULT_CANDIDATE_CAP, BasisSet, enumerate_bases
from .graphs import Graph, leaf_distance_two_exists
from .lattice import _integer, lattice_points, membership
# `RankOracle` is not used here; it stays bound for the benchmark's tracer.
from .polymatroid import RankOracle, VeroneseSpec, facets

Witness = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class BipartiteSpec:
    """Bounds for a complete bipartite graph, heavy side indexed as [m]."""

    m: int
    n: int
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))
        if self.m < 1 or self.n < 1 or len(self.c) != self.m + self.n:
            raise ValueError("need m, n >= 1 and m + n bounds")
        if any(ci < 1 for ci in self.c):
            raise ValueError("bounds must be positive")
        if self.heavy_sum <= self.small_sum:
            raise ValueError(
                f"heavy side sum {self.heavy_sum} must strictly exceed {self.small_sum}"
            )
        bad = [i for i in range(1, self.m + 1) if self.c[i - 1] > self.small_sum]
        if bad:
            raise ValueError(f"heavy bounds above the small side sum at {bad}")

    @property
    def heavy_sum(self) -> int:
        return sum(self.c[: self.m])

    @property
    def small_sum(self) -> int:
        return sum(self.c[self.m:])

    @property
    def unsaturated(self) -> tuple[int, ...]:
        """B: heavy indices whose bound is below the small side sum."""
        return tuple(i for i in range(1, self.m + 1) if self.c[i - 1] < self.small_sum)


def bipartite_spec(m: int, n: int, c) -> BipartiteSpec:
    """Normalize a K_{m,n} bound vector so the heavy side comes first.

    Raises ValueError when the side sums are equal (the hull is then the
    plain box and the subset criterion does not apply).
    """
    c = tuple(c)
    if len(c) != m + n:
        raise ValueError(f"expected {m + n} bounds, got {len(c)}")
    left, right = sum(c[:m]), sum(c[m:])
    if left > right:
        return BipartiteSpec(m, n, c)
    if right > left:
        return BipartiteSpec(n, m, c[m:] + c[:m])
    raise ValueError("side sums are equal: the hull is the box, no criterion needed")


def bipartite_interior_nonempty(spec: BipartiteSpec) -> bool:
    """Interior lattice points exist iff bounds off A are >= 2 and R >= m+1."""
    off_a = spec.unsaturated + tuple(range(spec.m + 1, spec.m + spec.n + 1))
    return all(spec.c[i - 1] >= 2 for i in off_a) and spec.small_sum >= spec.m + 1


def _first_obstruction(c, m: int, R: int) -> tuple[bool, Witness | None]:
    """Obstructions (1) and (2) with bounds c[:m] on [m] and cutoff R;
    returns the first violating X in (size, lex) order."""
    L = sum(c[:m])
    for size in range(1, m + 1):
        for X in itertools.combinations(range(1, m + 1), size):
            s = sum(c[i - 1] for i in X)
            if R < s < R - m + 2 * size - 1:
                return False, (1, X)
            if L - s < R <= 2 * size + L - s - m:
                return False, (2, X)
    return True, None


def bipartite_level_criterion(spec: BipartiteSpec) -> tuple[bool, Witness | None]:
    """Subset obstruction test; requires the interior hypotheses
    (R >= m+1, bounds off A at least 2)."""
    if not bipartite_interior_nonempty(spec):
        raise ValueError("criterion hypotheses violated: interior conditions fail")
    return _first_obstruction(spec.c, spec.m, spec.small_sum)


def veronese_level_criterion(spec: VeroneseSpec) -> tuple[bool, Witness | None]:
    """Subset obstruction test for a polytope of Veronese type, with
    cutoff a in place of R."""
    return _first_obstruction(spec.c, spec.n, spec.a)


def veronese_uniform_formula(n: int, c: int, a: int) -> bool:
    """Interval-union form of the criterion for uniform bounds c."""
    if not (a > c >= 2 and a >= n + 1 and a < n * c):
        raise ValueError(f"need a > c >= 2, a >= n+1, a < n*c; got n={n}, c={c}, a={a}")
    for k in range(1, n + 1):
        if k * c + n - 2 * k + 2 <= a <= k * c - 1:
            return False
        if (n - k) * c + 1 <= a <= 2 * k + (n - k) * c - n:
            return False
    return True


def tree_labeling_pseudo_gorenstein(T: Graph) -> bool:
    """Does some bound vector give the tree a pseudo-Gorenstein* hull?

    Holds exactly when no two leaves are at distance 2; the all-twos
    bound vector is then a witness.
    """
    return not leaf_distance_two_exists(T)


def bipartite_labeling_classification(m: int, n: int) -> bool:
    """Does some bound vector give K_{m,n} a pseudo-Gorenstein* hull?"""
    if m < 1 or n < 1:
        raise ValueError("side sizes must be positive")
    if m < n:
        m, n = n, m
    return m <= 2 * n - 1


def dilation_containment(G: Graph, c, N: int) -> tuple[bool, bool]:
    """Compare the N-fold dilate of the hull with the hull for bounds N*c.

    Returns (holds, strict): `holds` is containment of the dilate in the
    larger hull (checked on the scaled basis vectors, which generate it)
    and must always be true; `strict` flags a lattice point of the larger
    hull outside the dilate.
    """
    if N < 1:
        raise ValueError("dilation level must be >= 1")
    c = tuple(c)
    B1 = enumerate_bases(G, c)
    P1 = facets(B1)
    P2 = facets(enumerate_bases(G, tuple(N * ci for ci in c)))
    holds = all(
        membership(P2, tuple(N * x for x in b), 1, "full") for b in B1.bases
    )
    strict = any(
        not membership(P1, pt, N, "full") for pt in lattice_points(P2, 1, "full")
    )
    return holds, strict


def _pseudo_gorenstein_from_bases(B: BasisSet) -> bool:
    """Interior count == 1, in one pass over the bases as bitmasks (see
    "Pseudo-Gorenstein* from the bases"): `cover` holds the j with a basis
    >= 1 + e_j, `pair[i]` the j with a basis >= 1 + e_i + e_j."""
    n = B.n
    full = (1 << n) - 1
    cover = 0
    pair = [0] * n
    for b in B.bases:
        if 0 in b:
            continue
        two = three = 0
        for k, v in enumerate(b):
            if v >= 2:
                two |= 1 << k
                if v >= 3:
                    three |= 1 << k
        cover |= two
        rest = two
        while rest:
            bit = rest & -rest
            rest ^= bit
            pair[bit.bit_length() - 1] |= (two ^ bit) | (three & bit)
    return cover == full and full not in pair


def search_labeling(G: Graph, c_max: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP):
    """First bound vector in [1..c_max]^n (lex order) with a
    pseudo-Gorenstein* hull, or None.

    Vectors with some c_i < 2 are skipped before their bases are
    enumerated, because their hull has no interior lattice point: an
    interior point x has x_i >= 1, since x_i >= 0 is a facet, and
    x_i < rank({i}) by the rank inequalities of the discrete polymatroid
    (Herzog-Hibi, Discrete polymatroids, 2002), where rank({i}) <= c_i
    because every basis is bounded by c.  The remaining vectors keep their
    lex order, so the witness is the same.  Absence only means no witness
    with entries up to c_max exists.
    """
    c_max = _integer(c_max, "c_max")
    if c_max < 1:
        raise ValueError("c_max must be >= 1")
    for c in itertools.product(range(2, c_max + 1), repeat=G.n):
        B = enumerate_bases(G, c, candidate_cap=candidate_cap)
        if _pseudo_gorenstein_from_bases(B):
            return c
    return None
