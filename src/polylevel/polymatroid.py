"""Ground-set rank function and the irredundant facet system of the hull.

For a basis set B on [n] the rank of a subset X is the largest coordinate
sum over X attained by a basis.  Rank is monotone and submodular, and the
convex hull of the divisor set is cut out by x_i >= 0 together with

    sum_{i in A} x_i <= rank(A)

where A runs over the subsets that are *closed* (every strict superset has
strictly larger rank) and *inseparable* (no bipartition splits the rank
additively).  That classical description of integral polymatroid facets is
what `facets` computes, by direct scan over all 2^n subsets.

`HPolytope` is the resulting inequality system: implicit lower bounds
x_i >= 0 plus upper facets with 0/1 normal vectors and integer bounds.
Polytopes of Veronese type (a box truncated by one full simplex
inequality) are built directly from their parameter sequence.  Both
constructions return a `Polymatroid`, the subclass that marks the
integer decomposition property.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .bounded import BasisSet, _integers, enumerate_bases
from .errors import BudgetExceededError
from .graphs import star

FACET_SCAN_MAX_DIM = 16

# Entries kept by each memo of a per-polymatroid answer: `facets` here,
# `levelness.analyze_polytope` and `lattice.delta_vector`.  Those answers
# depend on the basis set alone, and many (G, c) share one: every connected
# labelled graph on 4 vertices with c in [1..3]^4 makes 3,078 requests with
# 377 distinct basis sets, and on 5 vertices with c in [1..2]^5 23,296
# requests have 832 (scripts/polymatroid_census.py).  1024 entries hold
# either census whole.  A basis set held in all three memos took about
# 2.2 KB (tracemalloc over the hulls of `perfbench` analyze, n = 4-5), so
# full memos hold about 2.3 MB.
_MEMO_SIZE = 1024

Subset = tuple[int, ...]


class RankOracle:
    """Bitmask-indexed table of subset ranks of a basis set."""

    def __init__(self, n: int, bases):
        self.n = n
        size = 1 << n
        table = [0] * size
        for a in bases:
            if len(a) != n:
                raise ValueError("basis length does not match n")
            sums = [0] * size
            for mask in range(1, size):
                low = mask & -mask
                s = sums[mask ^ low] + a[low.bit_length() - 1]
                sums[mask] = s
                if s > table[mask]:
                    table[mask] = s
        self._table = table

    @classmethod
    def from_basis_set(cls, B: BasisSet) -> "RankOracle":
        return cls(B.n, B.bases)

    def rank_mask(self, mask: int) -> int:
        """Rank of a subset given as a bitmask, bit i - 1 for element i."""
        return self._table[mask]


def is_closed_mask(R: RankOracle, mask: int) -> bool:
    """Closed: adding any single element strictly raises the rank.

    By monotonicity this one-element test settles all supersets: a rank
    plateau on any superset forces a plateau along a chain of single
    additions.
    """
    if mask == 0:
        raise ValueError("subset must be nonempty")
    table = R._table
    base = table[mask]
    full = (1 << R.n) - 1
    rest = full & ~mask
    while rest:
        bit = rest & -rest
        if table[mask | bit] <= base:
            return False
        rest ^= bit
    return True


def is_inseparable_mask(R: RankOracle, mask: int) -> bool:
    """Inseparable: no bipartition A' | A'' has rank(A') + rank(A'') == rank(A)."""
    if mask == 0:
        raise ValueError("subset must be nonempty")
    if mask & (mask - 1) == 0:  # singleton
        return True
    table = R._table
    total = table[mask]
    low = mask & -mask
    # enumerate submasks containing the lowest bit; the complement is nonempty
    sub = (mask - 1) & mask
    while sub:
        if sub & low and sub != mask:
            if table[sub] + table[mask ^ sub] == total:
                return False
        sub = (sub - 1) & mask
    # the submask loop misses `mask` itself only; nothing else to check
    return True


def _mask_of(subset: Subset) -> int:
    m = 0
    for i in subset:
        m |= 1 << (i - 1)
    return m


@dataclass(frozen=True)
class HPolytope:
    """Inequality system x >= 0, sum_{i in A} x_i <= t per upper facet (A, t).

    Every coordinate must occur in some upper facet, which makes the body
    bounded; all bounds are positive integers, so the standard simplex
    sits inside and the polytope is full-dimensional.
    """

    n: int
    upper_facets: tuple[tuple[Subset, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")
        covered = set()
        seen = set()
        for A, t in self.upper_facets:
            if not A or any(not 1 <= i <= self.n for i in A):
                raise ValueError(f"bad facet subset {A}")
            if tuple(A) != tuple(sorted(set(A))):
                raise ValueError(f"facet subset {A} must be sorted and duplicate-free")
            if A in seen:
                raise ValueError(f"duplicate facet subset {A}")
            seen.add(A)
            if t < 1:
                raise ValueError(f"facet bound {t} must be positive")
            covered.update(A)
        _integers((self.n, *covered, *(t for _A, t in self.upper_facets)),
                  "dimension, facet indices and bounds")
        if covered != set(range(1, self.n + 1)):
            missing = sorted(set(range(1, self.n + 1)) - covered)
            raise ValueError(f"unbounded coordinates (no upper facet): {missing}")


class Polymatroid(HPolytope):
    """An `HPolytope` that is an integral polymatroid.

    The type is a claim, made by `facets` and `veronese_polytope`: an
    integral polymatroid has the integer decomposition property, every
    lattice point of N*P is a sum of N lattice points of P (Herzog-Hibi,
    Discrete polymatroids, 2002), and so has each of its product blocks.
    `lattice.normality_check` and the degree test of `levelness` rely on
    it.  An `HPolytope` with the same facets is not one.  The constructor
    checks nothing, so the package does not export it: one built by hand
    from a non-polymatroid voids those theorems and gets wrong answers.
    """


@lru_cache(maxsize=_MEMO_SIZE)
def facets(B: BasisSet) -> Polymatroid:
    """Irredundant facet system of the hull of the divisor set of B.

    Scans subsets in (size, lex) order; output keeps that order, so
    reports are reproducible.  Answers are memoized by B (see `_MEMO_SIZE`),
    so equal basis sets share one frozen polytope; a raised error is not
    kept.
    """
    if B.n > FACET_SCAN_MAX_DIM:
        raise BudgetExceededError(
            f"dimension {B.n} exceeds the facet scan cap {FACET_SCAN_MAX_DIM}",
            cap="FACET_SCAN_MAX_DIM", limit=FACET_SCAN_MAX_DIM,
        )
    R = RankOracle.from_basis_set(B)
    out: list[tuple[Subset, int]] = []
    for size in range(1, B.n + 1):
        for combo in itertools.combinations(range(1, B.n + 1), size):
            mask = _mask_of(combo)
            if is_closed_mask(R, mask) and is_inseparable_mask(R, mask):
                out.append((combo, R.rank_mask(mask)))
    return Polymatroid(n=B.n, upper_facets=tuple(out))


@dataclass(frozen=True)
class VeroneseSpec:
    """Parameters (a; c_1 >= ... >= c_n >= 2) with a > c_1, a >= n+1, a < sum(c)."""

    n: int
    a: int
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))
        if self.n < 1 or len(self.c) != self.n:
            raise ValueError("c must have length n >= 1")
        if any(self.c[i] < self.c[i + 1] for i in range(self.n - 1)):
            raise ValueError("c must be weakly decreasing")
        if self.c[-1] < 2:
            raise ValueError("all c_i must be >= 2")
        if not (self.a > self.c[0] and self.a >= self.n + 1 and self.a < sum(self.c)):
            raise ValueError(
                f"need a > c_1, a >= n+1 and a < sum(c); got a={self.a}, c={self.c}"
            )


def veronese_polytope(spec: VeroneseSpec) -> Polymatroid:
    """Box 0 <= x_i <= c_i truncated by x_1 + ... + x_n <= a: the
    polymatroid of the rank min(a, sum_X c)."""
    ups = [((i,), spec.c[i - 1]) for i in range(1, spec.n + 1)]
    ups.append((tuple(range(1, spec.n + 1)), spec.a))
    return Polymatroid(n=spec.n, upper_facets=tuple(ups))


def star_prism(spec: VeroneseSpec) -> Polymatroid:
    """Hull polytope of the star K_{1,n} with bounds (a, c_1, ..., c_n).

    Built through the generic basis/facet pipeline; the result equals the
    prism 0 <= x_1 <= a over the Veronese polytope in coordinates 2..n+1,
    which the test suite asserts.
    """
    G = star(spec.n)
    bounds = (spec.a,) + spec.c
    return facets(enumerate_bases(G, bounds))
