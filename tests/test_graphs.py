import itertools

import pytest

import polylevel as pl


def test_path_edges():
    assert pl.path(3).edges == frozenset({(1, 2), (2, 3)})


def test_complete_bipartite_edges():
    G = pl.complete_bipartite(3, 4)
    assert G.n == 7
    assert len(G.edges) == 12
    assert all(i <= 3 < j for i, j in G.edges)


def test_triangle_is_cycle3():
    assert pl.cycle(3).edges == frozenset({(1, 2), (2, 3), (1, 3)})


def test_graph_invariants_enforced():
    with pytest.raises(ValueError, match="loop"):
        pl.graph(3, [(1, 1), (2, 3)])
    with pytest.raises(ValueError, match="isolated"):
        pl.graph(3, [(1, 2)])
    with pytest.raises(ValueError):
        pl.graph(2, [(1, 3)])
    with pytest.raises(ValueError):
        pl.graph(1, [])
    # parallel edges collapse under set semantics
    assert pl.graph(2, [(1, 2), (2, 1)]).edges == frozenset({(1, 2)})


def test_vertices_must_be_integers():
    """A float vertex, even 3.0, raises, where it made a graph that equals
    and hashes like the integer one; the bases memo and its class key
    index lists by vertex.  Integer-likes pass and are made ints."""
    import numpy as np

    with pytest.raises(ValueError, match="integer"):
        pl.graph(3, [(1, 2), (2, 3.0)])
    with pytest.raises(ValueError, match="integer"):
        pl.graph(3.0, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="integer"):
        pl.tree_from_parents([1, 1.0])
    G = pl.graph(np.int64(3), [(np.int64(1), 2), (2, np.int64(3))])
    assert G == pl.path(3) and type(G.n) is int
    assert all(type(v) is int for e in G.edges for v in e)


def test_is_tree():
    assert pl.is_tree(pl.path(5))
    assert pl.is_tree(pl.star(4))
    assert not pl.is_tree(pl.cycle(4))
    assert not pl.is_tree(pl.complete_bipartite(2, 2))


def test_is_connected():
    for G in (pl.path(4), pl.cycle(5), pl.complete(4), pl.complete_bipartite(2, 3), pl.star(3)):
        assert pl.is_connected(G)
    assert not pl.is_connected(pl.graph(4, [(1, 2), (3, 4)]))


def _bfs_connected(G):
    adj = G.adjacency()
    seen, todo = {1}, [1]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == G.n


@pytest.mark.parametrize("n", range(2, 6))
def test_is_connected_agrees_with_bfs(n):
    """Every labelled graph on n vertices without an isolated vertex."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for k in range(1, len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            if len({v for e in edges for v in e}) == n:
                G = pl.graph(n, edges)
                assert pl.is_connected(G) == _bfs_connected(G)


def test_tree_constructors_connected():
    for parents in [(1,), (1, 1), (1, 2, 3), (1, 1, 2, 2), (1, 2, 2, 4, 4)]:
        T = pl.tree_from_parents(parents)
        assert pl.is_tree(T)
        assert len(T.edges) == T.n - 1


def test_leaf_distance_two():
    assert pl.leaf_distance_two_exists(pl.path(3))
    assert not pl.leaf_distance_two_exists(pl.path(4))
    assert pl.leaf_distance_two_exists(pl.star(3))
    with pytest.raises(ValueError, match="tree"):
        pl.leaf_distance_two_exists(pl.cycle(4))


def test_leaf_distance_two_paths():
    for n in range(2, 13):
        assert pl.leaf_distance_two_exists(pl.path(n)) == (n == 3)


# OEIS A000055: trees on n unlabelled vertices, n = 2..10
TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def _least_relabelling(T):
    """Canonical form independent of AHU: least sorted edge list over all n! labellings."""
    return min(tuple(sorted(tuple(sorted((s[i - 1], s[j - 1]))) for i, j in T.edges))
               for s in itertools.permutations(range(1, T.n + 1)))


@pytest.mark.parametrize("n", sorted(TREE_COUNTS))
def test_trees_counts_match_a000055(n):
    cat = pl.trees(n)
    assert len(cat) == TREE_COUNTS[n]
    assert all(T.n == n and pl.is_tree(T) for T in cat)


@pytest.mark.parametrize("n", range(2, 8))
def test_trees_pairwise_non_isomorphic(n):
    """With the A000055 count, pairwise non-isomorphism proves the catalog complete."""
    forms = [_least_relabelling(T) for T in pl.trees(n)]
    assert len(set(forms)) == len(forms)


def test_trees_rejects_fewer_than_two_vertices():
    with pytest.raises(ValueError):
        pl.trees(1)
