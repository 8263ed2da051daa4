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
* Pruning is exact with any upper bound on the slack.  Let R be the
  residual sum and L the part of it on vertices with no edge ahead.  The
  edges ahead lower R by an even amount of at most R - L, so a state can
  only end at a residual sum of at least R - 2*floor((R - L)/2).  A state
  is kept only while that bound is at most slack0.  Every maximum
  weighting passes the test at each of its layers, since its bound is at
  most the slack, which is at most slack0; so every basis is found.  The
  greedy path passes it too, so the final states are never empty.
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
`realize_degree_sequence` decides a single vector; `enumerate_bases` does
not call it.
"""

from __future__ import annotations

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


def _check_bounds(G: Graph, c) -> tuple[int, ...]:
    c = tuple(c)
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


def _graph_structure(G: Graph):
    """What realizability reads of G.

    Returns (components, higher).  components: per connected component,
    its vertices, their colour signs (+1 / -1 along a 2-colouring grown
    from the least vertex) and whether that colouring is proper, i.e. the
    component is bipartite.  higher: per vertex v, its neighbours above v
    in increasing order (index 0 unused).
    """
    adj = G.adjacency()
    color: dict[int, int] = {}
    components = []
    for start in range(1, G.n + 1):
        if start in color:
            continue
        color[start] = 1
        stack, comp, bipartite = [start], [start], True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = -color[v]
                    comp.append(w)
                    stack.append(w)
                elif color[w] == color[v]:
                    bipartite = False
        components.append((tuple(comp), tuple(color[v] for v in comp), bipartite))
    higher = ((),) + tuple(tuple(sorted(w for w in adj[v] if w > v))
                           for v in range(1, G.n + 1))
    return tuple(components), higher


def realize_degree_sequence(G: Graph, a, q: int, return_witness: bool = False):
    """Decide whether `a` is the degree vector of a q-edge multiset of G.

    Processes vertices in order: the residual demand of vertex v (after
    weights from lower vertices) is distributed over its higher-numbered
    neighbors, pruning when the remaining demands cannot absorb it.  On a
    tree every distribution step is forced, so the witness is unique.
    """
    a = tuple(a)
    if len(a) != G.n or any(x < 0 for x in a):
        raise ValueError("exponent vector must be componentwise nonnegative of length n")
    if q < 1:
        raise ValueError("q must be positive")
    if sum(a) != 2 * q:
        raise ValueError(f"degree sum {sum(a)} does not match 2q = {2 * q}")

    components, higher = _graph_structure(G)
    # necessary component conditions: across a bipartition every edge feeds
    # both sides equally; in an odd-cycle component the total is just even
    for comp, signs, bipartite in components:
        total = sum(a[v - 1] for v in comp)
        side = sum(s * a[v - 1] for v, s in zip(comp, signs))
        if (bipartite and side != 0) or total % 2:
            return (False, None) if return_witness else False

    rem = [0] + list(a)
    weights: dict[tuple[int, int], int] = {}

    def place(v: int) -> bool:
        if v > G.n:
            return True
        nbrs = higher[v]
        need = rem[v]
        if need > sum(rem[w] for w in nbrs):
            return False

        def distribute(idx: int, left: int, headroom: int) -> bool:
            if idx == len(nbrs):
                return left == 0 and place(v + 1)
            w = nbrs[idx]
            tail = headroom - rem[w]
            lo = max(0, left - tail)
            for give in range(min(left, rem[w]), lo - 1, -1):
                rem[w] -= give
                weights[(v, w)] = give
                if distribute(idx + 1, left - give, tail):
                    return True
                rem[w] += give
            weights.pop((v, w), None)
            return False

        return distribute(0, need, sum(rem[w] for w in nbrs))

    ok = place(1)
    if not ok:
        return (False, None) if return_witness else False
    full = {e: weights.get(e, 0) for e in G.edge_list()}
    return (True, full) if return_witness else True


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


def enumerate_bases(G: Graph, c, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> BasisSet:
    """All degree vectors of maximum-size c-bounded edge multisets.

    One dynamic program over the edges in `edge_list()` order, whose state
    is the residual capacity vector r = c - (degrees placed so far),
    packed into one int, pruned with the slack of a greedy first descent.
    delta_c is read off the least final residual sum, and the bases are
    c - r over the final states that reach it.  See "Enumerating the
    bases" in the module docstring for why this is exact.

    Raises BudgetExceededError once a layer of the dynamic program holds
    more than `candidate_cap` states; a result is never truncated.
    """
    c = _check_bounds(G, c)
    edges = G.edge_list()
    slack0 = sum(c) - 2 * _first_descent(edges, c)
    bits = max(c).bit_length()
    mask = (1 << bits) - 1
    shifts = [bits * v for v in range(G.n)]
    last = {v: k for k, e in enumerate(edges) for v in e}
    # code -> (residual sum R, residual L on vertices with no edge ahead);
    # L starts at 0 because a Graph has no isolated vertex
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

    slack = min(R for R, _L in states.values())
    bases = [tuple(ci - ((code >> s) & mask) for ci, s in zip(c, shifts))
             for code, (R, _L) in states.items() if R == slack]
    return BasisSet(n=G.n, delta_c=(sum(c) - slack) // 2, bases=tuple(sorted(bases)))


def divisor_set(B: BasisSet) -> list[ExponentVector]:
    """All componentwise divisors of the basis vectors, lex sorted.

    Contains the origin and every unit vector.
    """
    points: set[ExponentVector] = set()

    def expand(a: ExponentVector, i: int, prefix: list[int]) -> None:
        if i == len(a):
            points.add(tuple(prefix))
            return
        for v in range(a[i] + 1):
            prefix.append(v)
            expand(a, i + 1, prefix)
            prefix.pop()

    for a in B.bases:
        expand(a, 0, [])
    return sorted(points)
