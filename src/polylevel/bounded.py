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
  R - 2*floor((R - L)/2).  A state is kept only while that bound is at
  most slack0.  A weighting that ends at residual sum R_end passes the
  test at each of its layers, since each bound is at most R_end; so with
  slack0 at least the slack, every basis is found.  The greedy path
  passes it too, so the final states are never empty.
* delta_c from the least final R.  Every final state ends at R at least
  the slack, and the maximum weightings end at the slack itself, so
  delta_c = (sum(c) - min R) / 2, and the bases are c - r over the final
  states with R = min R.  The others (min R < R <= slack0) are dropped.
* The weights on an edge are tried in descending order, and the bound
  never decreases as w falls (it equals L + ((R - L) mod 2), and one unit
  less weight raises L by 0, 1 or 2 while flipping the parity of R - L
  only when L rises by 1), so the first w that fails ends the loop.

`candidate_cap` bounds the number of states that one layer holds, the
last one included, so it bounds both the work of the dynamic program and
the number of bases; it is checked as each layer is built.

One vector
----------
`realize_degree_sequence(G, a, q)` runs the same program with bounds a
and slack0 = 0.  A weighting ends at residual sum 0 exactly when its
degree vector is a (its weight is then sum(a)/2 = q), and the pruning
keeps every such path, so a is realizable iff a final state survives.
Zero entries of a are fine: the program needs only L = 0 at the start,
i.e. every vertex on an edge, as in every Graph.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import BudgetExceededError
from .graphs import Graph

ExponentVector = tuple[int, ...]

DEFAULT_CANDIDATE_CAP = 10**7


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


def _integer(value, what: str) -> int:
    """value as an int; anything `operator.index` accepts passes.  `what`
    names it in the error."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


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
    weightings of `edges` that end at a residual sum <= slack0.  Every
    vertex must lie on an edge; raises BudgetExceededError once a layer
    holds more than `candidate_cap` states."""
    bits = max(c).bit_length()
    mask = (1 << bits) - 1
    shifts = [bits * v for v in range(len(c))]
    last = {v: k for k, e in enumerate(edges) for v in e}
    # code -> (residual sum R, residual L on vertices with no edge ahead);
    # L starts at 0 because every vertex lies on an edge
    states = {sum(ci << s for ci, s in zip(c, shifts)): (sum(c), 0)}
    for k, (i, j) in enumerate(edges):
        si, sj = shifts[i - 1], shifts[j - 1]
        step = (1 << si) + (1 << sj)
        dies_i, dies_j = last[i] == k, last[j] == k
        layer: dict[int, tuple[int, int]] = {}
        for code, (R, L) in states.items():
            ri, rj = (code >> si) & mask, (code >> sj) & mask
            for w in range(min(ri, rj), -1, -1):
                R2 = R - 2 * w
                L2 = L + dies_i * (ri - w) + dies_j * (rj - w)
                # the edges ahead lower R2 by at most 2*floor((R2-L2)/2)
                if R2 - 2 * ((R2 - L2) // 2) > slack0:
                    break
                layer[code - w * step] = (R2, L2)
        if len(layer) > candidate_cap:
            raise BudgetExceededError(
                f"{len(layer)} states after edge {k + 1} of {len(edges)} "
                f"exceed the cap {candidate_cap}",
                cap="candidate_cap", limit=candidate_cap,
            )
        states = layer
    least = min((R for R, _L in states.values()), default=None)
    return sorted([tuple(ci - ((code >> s) & mask) for ci, s in zip(c, shifts))
                   for code, (R, _L) in states.items() if R == least])


def enumerate_bases(G: Graph, c, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> BasisSet:
    """All degree vectors of maximum-size c-bounded edge multisets.

    One dynamic program over the edges in `edge_list()` order, whose state
    is the residual capacity vector r = c - (degrees placed so far),
    packed into one int, pruned with the slack of a greedy first descent.
    delta_c is read off the least final residual sum, and the bases are
    c - r over the final states that reach it.  See "Enumerating the
    bases" in the module docstring for why this is exact.

    Raises BudgetExceededError once a layer of the dynamic program holds
    more than `candidate_cap` states, an integer >= 1; a result is never
    truncated.
    """
    c = _check_bounds(G, c)
    candidate_cap = _cap(candidate_cap, "candidate_cap")
    edges = G.edge_list()
    slack0 = sum(c) - 2 * _first_descent(edges, c)
    bases = _final_states(edges, c, slack0, candidate_cap)
    return BasisSet(n=G.n, delta_c=sum(bases[0]) // 2, bases=tuple(bases))


def divisor_set(B: BasisSet) -> list[ExponentVector]:
    """All componentwise divisors of the basis vectors, lex sorted.

    Contains the origin and every unit vector.
    """
    return sorted({p for a in B.bases for p in itertools.product(*(range(v + 1) for v in a))})
