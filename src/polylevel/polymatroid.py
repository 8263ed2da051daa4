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
constructions return a `Polymatroid`, the subclass that marks an
integral polymatroid, the one type whose aggregate facets may cross.
Every polytope the package accepts has the integer decomposition
property: an integral polymatroid has it, and so has a laminar system
(the `lattice` docstring cites both theorems), which is why a hand-built
`HPolytope` may not hold crossing aggregate facets.

Relabelling.  Permuting the coordinates of B permutes the facets, the
lattice points of every dilate and its interior, and the splits, so the
delta vector and every verdict of `levelness` but the lex-least witness
depend on B only up to relabelling.  `facets` keys the class of B by (n,
image), the bases with the coordinates ordered by their sorted column of
values, ties by label, sorted.  The image relabels B, so equal keys are
sound; a tie that is no symmetry of B can only split a class, never
merge two.  A later member of a class relabels the first member's
facets, sorts them in (size, lex) order and keeps its hull as `first`,
from which `lattice.delta_vector` and `levelness.analyze_polytope`
answer (the witness is found again on the member's labels), so `budget`
bounds the work on the first hull.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .bounded import _MEMO_SIZE, BasisSet, _Class, _integers, enumerate_bases
from .errors import BudgetExceededError
from .graphs import star

FACET_SCAN_MAX_DIM = 16

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


def _crossing(sets):
    """The first two of `sets` (frozensets) that cross, meeting with
    neither holding the other, or None when the family is laminar."""
    return next(((X, Y) for X, Y in itertools.combinations(sets, 2)
                 if X & Y and not X <= Y and not Y <= X), None)


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
    sits inside and the polytope is full-dimensional.  The facets are kept
    as tuples, and two aggregate facets that cross raise ValueError.
    """

    n: int
    upper_facets: tuple[tuple[Subset, int], ...]
    first = None        # not a field: see `Polymatroid`

    def __post_init__(self):
        ups = tuple((tuple(A), t) for A, t in self.upper_facets)
        object.__setattr__(self, "upper_facets", ups)
        _integers((self.n, *(i for A, _t in ups for i in A), *(t for _A, t in ups)),
                  "dimension, facet indices and bounds")
        if self.n < 1:
            raise ValueError("dimension must be positive")
        covered = set()
        seen = set()
        for A, t in ups:
            if not A or any(not 1 <= i <= self.n for i in A):
                raise ValueError(f"bad facet subset {A}")
            if A != tuple(sorted(set(A))):
                raise ValueError(f"facet subset {A} must be sorted and duplicate-free")
            if A in seen:
                raise ValueError(f"duplicate facet subset {A}")
            seen.add(A)
            if t < 1:
                raise ValueError(f"facet bound {t} must be positive")
            covered.update(A)
        if covered != set(range(1, self.n + 1)):
            missing = sorted(set(range(1, self.n + 1)) - covered)
            raise ValueError(f"unbounded coordinates (no upper facet): {missing}")
        if type(self) is HPolytope:     # a `Polymatroid` may hold crossing facets
            pair = _crossing([frozenset(A) for A, _t in ups if len(A) > 1])
            if pair is not None:
                raise ValueError(f"aggregate facets over {sorted(pair[0])} and {sorted(pair[1])} "
                                 "cross: a hand-built HPolytope must be laminar")


@dataclass(frozen=True)
class Polymatroid(HPolytope):
    """An `HPolytope` that is an integral polymatroid.

    The type is a claim, made by `facets`, `veronese_polytope` and
    `lattice._restrict`: P and each of its product blocks have the
    integer decomposition property (Herzog-Hibi 2002), which
    `lattice.normality_check` and the degree test of `levelness` rely on,
    and every listed inequality is a facet, which reflexivity relies on
    (`lattice._unit_gaps`): `facets` lists the closed inseparable sets,
    the box and the cutoff of `veronese_polytope` are facets by its
    spec's bounds, and a block keeps its facets.
    The constructor checks no polymatroid axiom, so the package does not
    export it: one built by hand from a crossing system that is no
    polymatroid voids those theorems and gets wrong answers.  `first` is
    the first hull of its relabelling class, if another one.
    """

    first: Polymatroid | None = field(default=None, compare=False, repr=False)


def _class_of(B: BasisSet) -> _Class:
    """The class key (n, image) of the module docstring; `bases` is the
    basis set it was made from, `order` its coordinates in the key's
    order."""
    columns = [sorted(b[i] for b in B.bases) for i in range(B.n)]
    order = sorted(range(B.n), key=columns.__getitem__)  # stable: ties by label
    key = _Class((B.n, tuple(sorted(tuple(b[i] for i in order) for b in B.bases))))
    key.bases, key.order = B, tuple(order)
    return key


@lru_cache(maxsize=_MEMO_SIZE)
def facets(B: BasisSet) -> Polymatroid:
    """Irredundant facet system of the hull of the divisor set of B.

    Facets are listed in (size, lex) order, so reports are reproducible.
    Answers are memoized by B (see `bounded._MEMO_SIZE`), and only the
    first basis set of a relabelling class is scanned; a raised error is
    not kept.
    """
    if B.n > FACET_SCAN_MAX_DIM:
        raise BudgetExceededError(
            f"dimension {B.n} exceeds the facet scan cap {FACET_SCAN_MAX_DIM}",
            cap="FACET_SCAN_MAX_DIM", limit=FACET_SCAN_MAX_DIM,
        )
    key = _class_of(B)
    first, order = _class_facets(key)
    if order == key.order:      # B is the class's first basis set
        return first
    label = dict(zip(order, key.order))
    ups = sorted(((tuple(sorted(label[i - 1] + 1 for i in A)), t) for A, t in first.upper_facets),
                 key=lambda f: (len(f[0]), f[0]))
    return Polymatroid(B.n, tuple(ups), first)


@lru_cache(maxsize=_MEMO_SIZE)
def _class_facets(key: _Class) -> tuple[Polymatroid, tuple[int, ...]]:
    """The facets of `key.bases`, the first of its class to arrive, by a
    scan of the subsets in (size, lex) order, and its coordinate order."""
    B = key.bases
    R = RankOracle.from_basis_set(B)
    out: list[tuple[Subset, int]] = []
    for size in range(1, B.n + 1):
        for combo in itertools.combinations(range(1, B.n + 1), size):
            mask = _mask_of(combo)
            if is_closed_mask(R, mask) and is_inseparable_mask(R, mask):
                out.append((combo, R.rank_mask(mask)))
    return Polymatroid(n=B.n, upper_facets=tuple(out)), key.order


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
