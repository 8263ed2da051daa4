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

    Branch and bound over edges in index order.  The bound prunes with
    current total + floor(remaining capacity incident to unprocessed
    edges / 2); weights are tried in descending order so a strong
    incumbent appears on the first descent.
    """
    c = _check_bounds(G, c)
    edges = G.edge_list()
    m = len(edges)
    # vertices incident to some edge in the suffix edges[k:]
    suffix_support: list[tuple[int, ...]] = [()] * (m + 1)
    seen: set[int] = set()
    for k in range(m - 1, -1, -1):
        seen.update(edges[k])
        suffix_support[k] = tuple(seen)

    rem = [0] + list(c)
    best = 0

    def descend(k: int, total: int) -> None:
        nonlocal best
        if total > best:
            best = total
        if k == m:
            return
        headroom = sum(rem[v] for v in suffix_support[k]) // 2
        if total + headroom <= best:
            return
        i, j = edges[k]
        for w in range(min(rem[i], rem[j]), -1, -1):
            rem[i] -= w
            rem[j] -= w
            descend(k + 1, total + w)
            rem[i] += w
            rem[j] += w

    descend(0, 0)
    return best


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

    adj = G.adjacency()
    # necessary component conditions: across a bipartition every edge feeds
    # both sides equally; in an odd-cycle component the total is just even
    color: dict[int, int] = {}
    for start in range(1, G.n + 1):
        if start in color:
            continue
        color[start] = 0
        stack, comp, bipartite = [start], [start], True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    comp.append(w)
                    stack.append(w)
                elif color[w] == color[v]:
                    bipartite = False
        side = sum(a[v - 1] if color[v] == 0 else -a[v - 1] for v in comp)
        total = sum(a[v - 1] for v in comp)
        if (bipartite and side != 0) or total % 2:
            return (False, None) if return_witness else False

    higher = [sorted(w for w in adj.get(v, ()) if w > v) for v in range(G.n + 1)]
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


def _count_bounded_vectors(caps: tuple[int, ...], total: int) -> int:
    """Number of integer vectors 0 <= a <= caps with sum(a) == total."""
    counts = [0] * (total + 1)
    counts[0] = 1
    for cap in caps:
        nxt = [0] * (total + 1)
        running = 0
        # sliding window sum of the previous `cap+1` entries
        for s in range(total + 1):
            running += counts[s]
            if s - cap - 1 >= 0:
                running -= counts[s - cap - 1]
            nxt[s] = running
        counts = nxt
    return counts[total]


def enumerate_bases(G: Graph, c, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> BasisSet:
    """All degree vectors of maximum-size c-bounded edge multisets.

    Candidates a <= c with coordinate sum 2*delta_c are generated by
    recursive descent with remaining-sum pruning, then filtered by
    realizability.  Raises BudgetExceededError when the candidate count
    would exceed `candidate_cap`.
    """
    c = _check_bounds(G, c)
    d = delta_c(G, c)
    target = 2 * d
    n_candidates = _count_bounded_vectors(c, target)
    if n_candidates > candidate_cap:
        raise BudgetExceededError(
            f"{n_candidates} candidate vectors exceed the cap {candidate_cap}"
        )

    suffix_caps = [0] * (G.n + 1)
    for i in range(G.n - 1, -1, -1):
        suffix_caps[i] = suffix_caps[i + 1] + c[i]

    bases: list[ExponentVector] = []
    prefix: list[int] = []

    def descend(i: int, remaining: int) -> None:
        if i == G.n:
            a = tuple(prefix)
            if realize_degree_sequence(G, a, d):
                bases.append(a)
            return
        lo = max(0, remaining - suffix_caps[i + 1])
        hi = min(c[i], remaining)
        for v in range(lo, hi + 1):
            prefix.append(v)
            descend(i + 1, remaining - v)
            prefix.pop()

    descend(0, target)
    return BasisSet(n=G.n, delta_c=d, bases=tuple(sorted(bases)))


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
