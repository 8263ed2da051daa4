"""Degree-bounded edge multisets of a graph and their top-degree generators.

Fix a graph G on [n] and per-vertex bounds c = (c_1, ..., c_n).  An edge
multiset with multiplicities w assigns each vertex the degree
sum(w_e for e touching i); it is c-bounded when every such degree stays
at or below c_i.  Two quantities drive everything downstream:

* delta_c(G, c): the largest size (total multiplicity) of a c-bounded
  edge multiset.  This is an exact capacitated b-matching value with
  unbounded per-edge multiplicity.

* the basis set: all degree vectors of c-bounded edge multisets of the
  maximum size.  Every basis vector a satisfies a <= c componentwise and
  sums to 2 * delta_c, and the set is the base family of a discrete
  polymatroid (it satisfies the symmetric exchange axiom, which the test
  suite checks exhaustively on small instances).

The divisor set collects every componentwise divisor of a basis vector;
it is the full discrete polymatroid whose convex hull the facet module
describes by inequalities.

Enumerating the bases
---------------------
`enumerate_bases` never lists candidate vectors, and it learns delta_c
from its own final states.  It runs one dynamic program over the edges in
`edge_list()` order.  A state is the residual capacity vector
r = c - (degrees placed so far), packed into one int with
max(c).bit_length() bits per vertex, so placing weight w on edge {i, j}
subtracts w times a fixed step; residuals never go negative, so the
subtraction never borrows.  Each layer keeps its states in a dict, which
merges the paths that reach the same r.

* Merging is exact.  What the edges ahead can still place depends on r
  alone, so two paths that reach one r have the same completions.
* The incumbent.  Before the dynamic program, one greedy pass places
  w = min(r_i, r_j) on each edge in turn (`_first_descent`).  Its weight
  d0 is at most delta_c, so slack0 = sum(c) - 2*d0 is an upper bound on
  the slack sum(c) - 2*delta_c, the residual sum at which a maximum
  weighting ends and below which no weighting ends.
* Pruning keeps every path that can still end at a residual sum at most
  slack0.  Let R be the residual sum and L the part of it on vertices
  with no edge ahead.  The edges ahead lower R by an even amount of at
  most R - L, so a state can only end at a residual sum of at least
  L + ((R - L) mod 2).  R and slack0 both have the parity of sum(c), so
  that bound is at most slack0 exactly when L is, and a state is kept
  only while L <= slack0.  A weighting that ends at residual sum R_end
  passes the test at each of its layers, since each bound is at most
  R_end; so with slack0 at least the slack, every basis is found.  The
  greedy path passes it too, so the final states are never empty.  A
  state stores L alone: after the last edge every vertex has no edge
  ahead, so L is then the residual sum.
* delta_c from the least final R.  Every final state ends at R at least
  the slack, and the maximum weightings end at the slack itself, so
  delta_c = (sum(c) - min R) / 2, and the bases are c - r over the final
  states with R = min R.  The others (min R < R <= slack0) are dropped.
* The weights kept on an edge form a window, found without a test per
  weight.  Call an endpoint of {i, j} dying when {i, j} is its last
  edge, and let A be L plus the residuals of the dying endpoints before
  the edge.  Weight w lowers both residuals by w, so it leaves L = A - d*w,
  d the number of dying endpoints, and w runs up to min(r_i, r_j) from
  - 0 when neither endpoint dies: L is unchanged, and the state already
    passed the test;
  - A - slack0 (or 0) when one dies;
  - ceil((A - slack0)/2) (or 0) when both die.
  Testing each weight would keep exactly these states.

`candidate_cap` bounds the number of states that one layer holds, the
last one included, so it bounds both the work of the dynamic program and
the number of bases; it is checked as each layer is built.

Answers of `enumerate_bases` are memoized by (G, c, candidate_cap), c as
the tuple of ints it normalizes to, so equal calls share one frozen
`BasisSet`; a raised BudgetExceededError is not kept.

Relabelling.  Renaming the vertices of (G, c) renames the coordinates of
its bases, so the program runs once per relabelling class of (G, c, cap),
under the labelled memo.  The class key orders the vertices by (c_v,
deg_v, the sum of the degrees of v's neighbours), ties by label, the
first step of colour refinement (McKay 1981), and is the image of (c,
edge set, cap) under that order, the edge set as a bitmask.  The key is
an image of the input, so equal keys are sound: one relabelling carries
either input onto the other.  A tie that is no symmetry can only split a
class, never merge two.  The first (G, c) of a class runs the program on
its own labels, and a later member relabels that member's bases, sorts
them and passes them through the `BasisSet` constructor.  So
`candidate_cap` bounds the program of a class's first member, whose
layers may differ in size from a member's own; a raised error is not
kept, so the next member runs its own program.

One vector
----------
`realize_degree_sequence(G, a, q)` runs the same program with bounds a
and slack0 = 0, which has the parity of sum(a) = 2q.  A weighting ends
at residual sum 0 exactly when its degree vector is a (its weight is
then sum(a)/2 = q), and the pruning keeps every such path, so a is
realizable iff a final state survives.
Zero entries of a are fine: the program needs only L = 0 at the start,
i.e. every vertex on an edge, as in every Graph.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError
from .graphs import Graph, _integer

ExponentVector = tuple[int, ...]

DEFAULT_CANDIDATE_CAP = 10**7

# Entries kept by each memo of a per-input answer: `enumerate_bases` (by
# graph, bounds and cap, and by their relabelling class),
# `polymatroid.facets` (by basis set and by relabelling class),
# `levelness.analyze_polytope` (by hull), `lattice.delta_vector` (by the
# first hull of the class) and `lattice._structure`.  1024 entries hold
# either census of scripts/polymatroid_census.py (377 and 832 basis
# sets).  Measured with tracemalloc on the seed 1-3 pools of `perfbench`,
# the memos after `enumerate_bases` held about 2.1 KB per basis set
# (analyze, n = 4-5), the `enumerate_bases` memo 0.51 KB per entry on
# analyze and 1.0-1.2 KB on labeling-search (n = 4-8), and its class memo
# 0.76 KB per entry on analyze and 0.66 KB on labeling-search (the key,
# the first member's order and the basis sets the labelled memo has
# dropped): 1024 entries take about 2.1 MB, 0.5-1.2 MB and 0.7-0.8 MB.
_MEMO_SIZE = 1024


@dataclass(frozen=True)
class BasisSet:
    """Top multiset size delta_c plus the lex-sorted tuple of basis vectors."""

    n: int
    delta_c: int
    bases: tuple[ExponentVector, ...]

    def __post_init__(self):
        if self.delta_c < 1:
            raise ValueError("delta_c must be positive")
        if not self.bases:
            raise ValueError("basis set may not be empty")
        for a in self.bases:
            if len(a) != self.n or any(x < 0 for x in a):
                raise ValueError(f"bad basis vector {a}")
            if sum(a) != 2 * self.delta_c:
                raise ValueError(f"basis {a} does not have coordinate sum {2 * self.delta_c}")


def _integers(v, what: str) -> tuple[int, ...]:
    """`v` as a tuple of ints; anything `operator.index` accepts passes."""
    v = tuple(v)
    try:
        return tuple(map(operator.index, v))
    except TypeError:
        raise ValueError(f"{what} must hold integers, got {v}") from None


def _cap(value, what: str) -> int:
    """A work cap, such as `budget` or `candidate_cap`, as an int >= 1."""
    value = _integer(value, what)
    if value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value}")
    return value


def _check_bounds(G: Graph, c) -> tuple[int, ...]:
    c = _integers(c, "bound vector")
    if len(c) != G.n:
        raise ValueError(f"bound vector has length {len(c)}, graph has {G.n} vertices")
    if any(ci < 1 for ci in c):
        raise ValueError("all bounds must be positive")
    return c


def delta_c(G: Graph, c) -> int:
    """Maximum total multiplicity of a c-bounded edge multiset.

    Read off `enumerate_bases` (see "Enumerating the bases" in the module
    docstring), so it raises BudgetExceededError where that does at the
    default `candidate_cap`.
    """
    return enumerate_bases(G, c).delta_c


def realize_degree_sequence(G: Graph, a, q: int) -> bool:
    """Is `a` the degree vector of a q-edge multiset of G?  See "One vector"
    in the module docstring; raises BudgetExceededError where that program
    holds more than `DEFAULT_CANDIDATE_CAP` states in a layer."""
    a = _integers(a, "exponent vector")
    if len(a) != G.n or any(x < 0 for x in a):
        raise ValueError("exponent vector must be componentwise nonnegative of length n")
    q = _integer(q, "q")
    if q < 1:
        raise ValueError("q must be positive")
    if sum(a) != 2 * q:
        raise ValueError(f"degree sum {sum(a)} does not match 2q = {2 * q}")
    return bool(_final_states(G.edge_list(), a, 0, DEFAULT_CANDIDATE_CAP))


def _first_descent(edges, c) -> int:
    """Weight of the greedy weighting that places min(r_i, r_j) on each
    edge in turn; a lower bound on delta_c."""
    rem = [0] + list(c)
    total = 0
    for i, j in edges:
        w = min(rem[i], rem[j])
        rem[i] -= w
        rem[j] -= w
        total += w
    return total


def _final_states(edges, c, slack0: int, candidate_cap: int):
    """The sorted degree vectors c - r of the bases dynamic program's final
    states at the least residual sum, where the program keeps exactly the
    weightings of `edges` that end at a residual sum <= slack0.  slack0
    must have the parity of sum(c), and every vertex must lie on an edge;
    raises BudgetExceededError once a layer holds more than `candidate_cap`
    states."""
    bits = max(c).bit_length()
    mask = (1 << bits) - 1
    shifts = [bits * v for v in range(len(c))]
    last = {v: k for k, e in enumerate(edges) for v in e}
    # code -> residual L on vertices with no edge ahead, which is 0 at the
    # start because every vertex lies on an edge, and the residual sum at
    # the end, when every vertex has none
    states = {sum(ci << s for ci, s in zip(c, shifts)): 0}
    for k, (i, j) in enumerate(edges):
        si, sj = shifts[i - 1], shifts[j - 1]
        step = (1 << si) + (1 << sj)
        dies_i, dies_j = last[i] == k, last[j] == k
        layer: dict[int, int] = {}
        # the weights w that leave at most slack0 on the dead vertices,
        # from the least (the module docstring) up to min(ri, rj)
        if dies_i and dies_j:
            for code, L in states.items():
                ri, rj = (code >> si) & mask, (code >> sj) & mask
                A = L + ri + rj
                low = (A - slack0 + 1) // 2
                if low < 0:
                    low = 0
                for w in range(low, min(ri, rj) + 1):
                    layer[code - w * step] = A - 2 * w
        elif dies_i or dies_j:
            sd = si if dies_i else sj
            for code, L in states.items():
                ri, rj = (code >> si) & mask, (code >> sj) & mask
                A = L + ((code >> sd) & mask)
                low = A - slack0
                if low < 0:
                    low = 0
                for w in range(low, min(ri, rj) + 1):
                    layer[code - w * step] = A - w
        else:
            for code, L in states.items():
                for w in range(min((code >> si) & mask, (code >> sj) & mask) + 1):
                    layer[code - w * step] = L
        if len(layer) > candidate_cap:
            raise BudgetExceededError(
                f"{len(layer)} states after edge {k + 1} of {len(edges)} "
                f"exceed the cap {candidate_cap}",
                cap="candidate_cap", limit=candidate_cap,
            )
        states = layer
    least = min(states.values(), default=None)
    return sorted([tuple(ci - ((code >> s) & mask) for ci, s in zip(c, shifts))
                   for code, R in states.items() if R == least])


def enumerate_bases(G: Graph, c, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> BasisSet:
    """All degree vectors of maximum-size c-bounded edge multisets.

    One dynamic program over the edges in `edge_list()` order, whose state
    is the residual capacity vector r = c - (degrees placed so far),
    packed into one int, pruned with the slack of a greedy first descent.
    delta_c is read off the least final residual sum, and the bases are
    c - r over the final states that reach it.  See "Enumerating the
    bases" in the module docstring for why this is exact.

    Answers are memoized by (G, c, candidate_cap) (see `_MEMO_SIZE`),
    however the call spells c, so equal calls share one frozen basis set,
    and the program runs once per relabelling class of (G, c,
    candidate_cap) ("Relabelling" in the module docstring); a raised
    error is not kept.  Raises BudgetExceededError once a layer
    of the dynamic program holds more than `candidate_cap` states, an
    integer >= 1; a result is never truncated.
    """
    return _bases(G, _check_bounds(G, c), _cap(candidate_cap, "candidate_cap"))


class _Class(tuple):
    """A relabelling class key, the image of an input with its coordinates
    in the order `order`: (c, edges, cap) here (the module docstring,
    "Relabelling") and (n, bases) in `polymatroid`.  The input it was made
    from rides along as attributes, for the memo that runs the class's
    first member."""


def _class_of(G: Graph, c: tuple[int, ...], candidate_cap: int) -> _Class:
    """The class key of (G, c, candidate_cap) ("Relabelling" in the module
    docstring); `graph` and `bounds` are the input, `order` its vertices,
    from 0, in the key's order."""
    deg = [0] * (G.n + 1)
    for i, j in G.edges:
        deg[i] += 1
        deg[j] += 1
    around = [0] * (G.n + 1)
    for i, j in G.edges:
        around[i] += deg[j]
        around[j] += deg[i]
    order = sorted(range(G.n), key=lambda v: (c[v], deg[v + 1], around[v + 1]))  # ties by label
    place = [0] * (G.n + 1)
    for k, v in enumerate(order):
        place[v + 1] = k
    edges = 0                   # the image of the edge set, as a bitmask
    for i, j in G.edges:
        edges |= 1 << place[i] * G.n + place[j] | 1 << place[j] * G.n + place[i]
    key = _Class((tuple(c[v] for v in order), edges, candidate_cap))
    key.graph, key.bounds, key.order = G, c, tuple(order)
    return key


@lru_cache(maxsize=_MEMO_SIZE)
def _bases(G: Graph, c: tuple[int, ...], candidate_cap: int) -> BasisSet:
    key = _class_of(G, c, candidate_cap)
    first, order = _class_bases(key)
    if order == key.order:      # (G, c) is the class's first member
        return first
    source = [0] * G.n          # coordinate of the first member's bases
    for f, v in zip(order, key.order):
        source[v] = f
    bases = sorted(map(operator.itemgetter(*source), first.bases))
    return BasisSet(n=G.n, delta_c=first.delta_c, bases=tuple(bases))


@lru_cache(maxsize=_MEMO_SIZE)
def _class_bases(key: _Class) -> tuple[BasisSet, tuple[int, ...]]:
    """The basis set of `key.graph` and `key.bounds`, the first of its
    class to arrive, by the program on its own labels, and its vertex
    order."""
    G, c = key.graph, key.bounds
    edges = G.edge_list()
    slack0 = sum(c) - 2 * _first_descent(edges, c)
    bases = _final_states(edges, c, slack0, key[2])     # the cap
    return BasisSet(n=G.n, delta_c=sum(bases[0]) // 2, bases=tuple(bases)), key.order


def divisor_set(B: BasisSet) -> list[ExponentVector]:
    """All componentwise divisors of the basis vectors, lex sorted.

    Contains the origin and every unit vector.
    """
    return sorted({p for a in B.bases for p in itertools.product(*(range(v + 1) for v in a))})
