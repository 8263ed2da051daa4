"""Intentionally naive reference implementations for cross-validation.

Everything here recomputes from first principles, shares only the data
types with the main modules, and favors transparency over speed: the
basis oracle enumerates every feasible edge-multiplicity vector, the
max-flow oracle solves delta_c of bipartite graphs by another algorithm,
the volume oracle runs the classical boundary-recursion with exact
fractions, and the levelness oracle scans plain bounding boxes with no
pruning.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .errors import BudgetExceededError
from .graphs import Graph
from .polymatroid import HPolytope

VERTEX_GUARD = 10**7
NODE_GUARD = 10**8


def brute_bases(G: Graph, c, q_max: int | None = None):
    """(delta, bases) by exhausting all feasible edge-multiplicity vectors.

    `q_max`, when given, caps the total multiplicity considered.  Guarded
    by the product of (c_i + 1) over the vertices and by a raw node count.
    """
    c = tuple(c)
    if len(c) != G.n or any(ci < 1 for ci in c):
        raise ValueError("bad bound vector")
    guard = 1
    for ci in c:
        guard *= ci + 1
        if guard > VERTEX_GUARD:
            raise BudgetExceededError(f"vertex bound product exceeds {VERTEX_GUARD}")
    edges = G.edge_list()
    rem = [0] + list(c)
    best = 0
    best_vectors: set[tuple[int, ...]] = set()
    nodes = 0

    def walk(k: int, total: int) -> None:
        nonlocal best, best_vectors, nodes
        nodes += 1
        if nodes > NODE_GUARD:
            raise BudgetExceededError(f"edge enumeration exceeds {NODE_GUARD} nodes")
        if k == len(edges):
            if total > best:
                best = total
                best_vectors = set()
            if total == best and total > 0:
                best_vectors.add(tuple(ci - ri for ci, ri in zip(c, rem[1:])))
            return
        i, j = edges[k]
        cap = min(rem[i], rem[j])
        if q_max is not None:
            cap = min(cap, q_max - total)
        for w in range(cap + 1):
            rem[i] -= w
            rem[j] -= w
            walk(k + 1, total + w)
            rem[i] += w
            rem[j] += w

    walk(0, 0)
    return best, sorted(best_vectors)


def _two_coloring(G: Graph) -> tuple[list[int], list[int]] | None:
    """A bipartition of the vertices, or None if G has an odd cycle."""
    adj = G.adjacency()
    color = {}
    for start in range(1, G.n + 1):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    left = [v for v in range(1, G.n + 1) if color[v] == 0]
    right = [v for v in range(1, G.n + 1) if color[v] == 1]
    return left, right


def delta_c_maxflow(G: Graph, c) -> int:
    """delta_c of a bipartite graph as an integer max-flow value.

    Raises ValueError on non-bipartite input.  A referee for the
    branch-and-bound `bounded.delta_c`; needs scipy (the `test` extra).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    c = tuple(c)
    if len(c) != G.n or any(ci < 1 for ci in c):
        raise ValueError("bad bound vector")
    coloring = _two_coloring(G)
    if coloring is None:
        raise ValueError("graph is not bipartite")
    left, right = coloring
    # nodes: 0 = source, 1..n = vertices, n+1 = sink
    n = G.n
    source, sink = 0, n + 1
    rows, cols, caps = [], [], []
    for v in left:
        rows.append(source)
        cols.append(v)
        caps.append(c[v - 1])
    for v in right:
        rows.append(v)
        cols.append(sink)
        caps.append(c[v - 1])
    leftset = set(left)
    for i, j in G.edge_list():
        u, w = (i, j) if i in leftset else (j, i)
        rows.append(u)
        cols.append(w)
        caps.append(min(c[u - 1], c[w - 1]))
    mat = csr_matrix((caps, (rows, cols)), shape=(n + 2, n + 2))
    return int(maximum_flow(mat, source, sink).flow_value)


def _volume(ineqs: list[tuple[tuple[Fraction, ...], Fraction]], dim: int) -> Fraction:
    """Volume of {x : a . x <= b for all (a, b)} by facet recursion.

    vol = (1/dim) * sum over rows of (b / |a_j|) * vol of the projection
    of the row's equality slice, with duplicate half-spaces merged first
    so no facet is counted twice.  One-dimensional systems reduce to an
    interval.  Lower-dimensional or empty bodies come out as zero.
    """
    # canonicalize: scale each row so its first nonzero coefficient is +-1,
    # drop trivial rows, and keep only the tightest of parallel rows
    canon: dict[tuple[Fraction, ...], Fraction] = {}
    for a, b in ineqs:
        nz = [x for x in a if x != 0]
        if not nz:
            if b < 0:
                return Fraction(0)
            continue
        scale = abs(nz[0])
        key = tuple(x / scale for x in a)
        val = b / scale
        if key not in canon or val < canon[key]:
            canon[key] = val
    rows = sorted(canon.items())
    if dim == 1:
        lo, hi = None, None
        for (a0,), b in rows:
            if a0 > 0:
                v = b / a0
                hi = v if hi is None else min(hi, v)
            else:
                v = b / a0
                lo = v if lo is None else max(lo, v)
        if lo is None or hi is None:
            raise ValueError("unbounded one-dimensional system")
        return max(Fraction(0), hi - lo)

    total = Fraction(0)
    for idx, (a, b) in enumerate(rows):
        if b == 0:
            continue
        j = next(k for k, x in enumerate(a) if x != 0)
        reduced = []
        for k2, (a2, b2) in enumerate(rows):
            if k2 == idx:
                continue
            factor = a2[j] / a[j]
            new_a = tuple(
                x2 - factor * x for k3, (x2, x) in enumerate(zip(a2, a)) if k3 != j
            )
            reduced.append((new_a, b2 - factor * b))
        total += (b / abs(a[j])) * _volume(reduced, dim - 1)
    return total / dim


def brute_volume(P: HPolytope):
    """Normalized volume n! * vol(P) by exact recursion; n <= 4 only."""
    if P.n > 4:
        raise ValueError(f"volume oracle handles dimension <= 4, got {P.n}")
    ineqs: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for i in range(P.n):
        a = tuple(Fraction(-1) if k == i else Fraction(0) for k in range(P.n))
        ineqs.append((a, Fraction(0)))
    for A, t in P.upper_facets:
        a = tuple(Fraction(1) if (k + 1) in A else Fraction(0) for k in range(P.n))
        ineqs.append((a, Fraction(t)))
    vol = _volume(ineqs, P.n) * factorial(P.n)
    return int(vol) if vol.denominator == 1 else vol


def _box_points(P: HPolytope, N: int, interior: bool):
    """Flat scan of the full bounding box, filtered by the inequalities."""
    lo = 1 if interior else 0
    slack = 1 if interior else 0
    ubs = []
    for i in range(1, P.n + 1):
        ub = min(N * t for A, t in P.upper_facets if i in A)
        ubs.append(ub - slack)
    size = 1
    for ub in ubs:
        size *= ub - lo + 1
        if size > NODE_GUARD:
            raise BudgetExceededError(f"flat box scan of {size}+ points")
    pts = []
    for x in itertools.product(*(range(lo, ub + 1) for ub in ubs)):
        if all(sum(x[i - 1] for i in A) <= N * t - slack for A, t in P.upper_facets):
            pts.append(x)
    return pts


def brute_level_star(P: HPolytope, max_n: int | None = None) -> bool:
    """Levelness by flat enumeration; small instances only."""
    top = max_n if max_n is not None else max(2, P.n - 1)
    inner = _box_points(P, 1, interior=True)
    if not inner:
        return False
    for N in range(2, top + 1):
        for a in _box_points(P, N, interior=True):
            found = False
            for p in inner:
                q = tuple(ai - pi for ai, pi in zip(a, p))
                if all(v >= 0 for v in q) and all(
                    sum(q[i - 1] for i in A) <= (N - 1) * t for A, t in P.upper_facets
                ):
                    found = True
            if not found:
                return False
    return True


def brute_interior_points(P: HPolytope, N: int = 1):
    """Interior lattice points of the N-fold dilate, by flat scan."""
    return _box_points(P, N, interior=True)


def brute_count(P: HPolytope, N: int, interior: bool = False) -> int:
    """|N*P ∩ Z^n| (or interior count) by flat scan; N = 0 gives 1 resp. 0."""
    if N == 0:
        return 0 if interior else 1
    return len(_box_points(P, N, interior))


def brute_reduced_degree(P: HPolytope, a, N: int) -> int:
    """Least r with a = a0 + a', a0 interior to r*P and a' in (N-r)*P.

    Flat search: for each r, every lattice point 1 <= a0 <= a that is
    interior to r*P, then a membership test of a - a0 in the (N-r)-fold
    dilate.
    """
    a = tuple(a)
    if any(v < 1 for v in a) or any(
        sum(a[i - 1] for i in A) > N * t - 1 for A, t in P.upper_facets
    ):
        raise ValueError(f"{a} is not an interior lattice point of the {N}-fold dilate")
    for r in range(1, N + 1):
        for a0 in itertools.product(*(range(1, v + 1) for v in a)):
            if any(sum(a0[i - 1] for i in A) > r * t - 1 for A, t in P.upper_facets):
                continue
            q = tuple(ai - bi for ai, bi in zip(a, a0))
            if all(sum(q[i - 1] for i in A) <= (N - r) * t for A, t in P.upper_facets):
                return r
    raise RuntimeError("unreachable: r = N always splits")  # pragma: no cover
