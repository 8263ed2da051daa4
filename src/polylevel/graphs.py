"""Simple graphs on 1-based vertex sets, standard families, tree predicates, tree catalog.

Vertices are 1..n throughout the package; edges are unordered pairs stored
as sorted tuples.  Graphs are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Finite simple graph: no loops, no parallel edges, no isolated vertex."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a graph needs at least 2 vertices")
        norm = set()
        for e in self.edges:
            i, j = e
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge {tuple(e)} outside vertex range 1..{self.n}")
            norm.add((min(i, j), max(i, j)))
        covered = {v for e in norm for v in e}
        missing = sorted(set(range(1, self.n + 1)) - covered)
        if missing:
            raise ValueError(f"isolated vertices: {missing}")
        object.__setattr__(self, "edges", frozenset(norm))

    def edge_list(self) -> list[Edge]:
        return sorted(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


def graph(n: int, edges) -> Graph:
    """Build a Graph from any iterable of pairs."""
    return Graph(n, frozenset(tuple(e) for e in edges))


def path(n: int) -> Graph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    return graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete(n: int) -> Graph:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} with parts [m] and {m+1, ..., m+n}."""
    if m < 1 or n < 1:
        raise ValueError("complete bipartite graph needs m, n >= 1")
    return graph(m + n, [(i, m + j) for i in range(1, m + 1) for j in range(1, n + 1)])


def star(n: int) -> Graph:
    """K_{1,n}: center vertex 1 joined to leaves 2..n+1."""
    if n < 1:
        raise ValueError("star needs n >= 1 leaves")
    return graph(n + 1, [(1, j) for j in range(2, n + 2)])


def tree_from_parents(parents) -> Graph:
    """Tree on 1..len(parents)+1 where parents[k] is the parent of vertex k+2."""
    parents = list(parents)
    n = len(parents) + 1
    edges = []
    for k, p in enumerate(parents):
        child = k + 2
        if not 1 <= p < child:
            raise ValueError(f"parent of vertex {child} must lie in 1..{child - 1}")
        edges.append((p, child))
    return graph(n, edges)


def _ahu_code(adj: dict[int, set[int]], v: int, parent: int) -> str:
    """AHU parenthesis code of the subtree at v, hanging from parent."""
    return "(" + "".join(sorted(_ahu_code(adj, w, v) for w in adj[v] if w != parent)) + ")"


def trees(n: int) -> list[Graph]:
    """Every tree on n >= 2 vertices up to isomorphism, in a deterministic order.

    Each tree of trees(n - 1) grows a leaf n at every vertex, and the first
    tree of each canonical form is kept: the least AHU parenthesis code over
    all roots (Aho, Hopcroft and Ullman, 1974), shared exactly by isomorphic trees.
    """
    if n <= 2:
        return [path(n)]
    grown: dict[str, Graph] = {}
    for T in trees(n - 1):
        for v in range(1, n):
            G = graph(n, T.edges | {(v, n)})
            adj = G.adjacency()
            grown.setdefault(min(_ahu_code(adj, r, 0) for r in adj), G)
    return list(grown.values())


_FAMILIES = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "star": (star, 1),
}


def make_family(kind: str, *params: int) -> Graph:
    """Construct a named graph family; `tree` takes a parent list."""
    if kind == "tree":
        return tree_from_parents(params)
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family {kind!r}; known: {sorted(_FAMILIES)} and 'tree'")
    ctor, arity = _FAMILIES[kind]
    if len(params) != arity:
        raise ValueError(f"family {kind!r} takes {arity} parameter(s), got {len(params)}")
    return ctor(*params)


def is_tree(G: Graph) -> bool:
    """Connectivity via union-find plus the edge count n-1."""
    if len(G.edges) != G.n - 1:
        return False
    parent = list(range(G.n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in G.edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def leaves(G: Graph) -> list[int]:
    return [v for v in range(1, G.n + 1) if G.degree(v) == 1]


def distances_from(G: Graph, source: int) -> dict[int, int]:
    """BFS distances from `source` to every reachable vertex."""
    adj = G.adjacency()
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def leaf_distance_two_exists(T: Graph) -> bool:
    """True iff two distinct leaves of the tree T are at distance 2: share a neighbour."""
    if not is_tree(T):
        raise ValueError("not a tree")
    lv = set(leaves(T))
    return any(len(nbrs & lv) >= 2 for nbrs in T.adjacency().values())
