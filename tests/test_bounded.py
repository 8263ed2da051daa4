import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polylevel as pl
from polylevel.errors import BudgetExceededError
from polylevel.oracle import brute_bases, delta_c_maxflow

from conftest import graph_and_bounds


def test_delta_known_values():
    assert pl.delta_c(pl.path(3), (2, 3, 2)) == 3
    assert pl.delta_c(pl.cycle(3), (1, 1, 1)) == 1
    assert pl.delta_c(pl.complete_bipartite(3, 4), (2,) * 7) == 6


def test_delta_maxflow_agrees_on_bipartite():
    import itertools

    for m, n in [(1, 2), (2, 2), (2, 3), (3, 4)]:
        G = pl.complete_bipartite(m, n)
        for c in itertools.product((1, 2, 3), repeat=m + n):
            assert pl.delta_c(G, c) == delta_c_maxflow(G, c)
    # path and even cycle are bipartite too
    for G in (pl.path(4), pl.cycle(4)):
        for c in itertools.product((1, 2, 3), repeat=G.n):
            assert pl.delta_c(G, c) == delta_c_maxflow(G, c)


def test_delta_maxflow_rejects_odd_cycle():
    with pytest.raises(ValueError, match="bipartite"):
        delta_c_maxflow(pl.cycle(3), (1, 1, 1))


def test_realize_examples():
    ok, w = pl.realize_degree_sequence(pl.path(3), (2, 3, 1), 3, return_witness=True)
    assert ok and w == {(1, 2): 2, (2, 3): 1}
    ok, w = pl.realize_degree_sequence(pl.cycle(3), (2, 1, 1), 2, return_witness=True)
    assert ok and w == {(1, 2): 1, (1, 3): 1, (2, 3): 0}
    assert pl.realize_degree_sequence(pl.path(3), (3, 0, 3), 3) is False


def test_realize_degree_sum_mismatch():
    with pytest.raises(ValueError, match="sum"):
        pl.realize_degree_sequence(pl.path(3), (1, 1, 1), 2)


def test_realize_tree_witness_unique():
    # on a tree the edge weights are forced leaf-inward
    import itertools

    T = pl.tree_from_parents((1, 1, 2, 2))
    edges = T.edge_list()
    for a in [(2, 2, 1, 2, 1), (1, 3, 2, 1, 1)]:
        q, rem = divmod(sum(a), 2)
        if rem:
            continue
        witnesses = [
            w
            for w in itertools.product(range(4), repeat=len(edges))
            if all(
                sum(wk for wk, e in zip(w, edges) if v in e) == a[v - 1]
                for v in range(1, T.n + 1)
            )
        ]
        ok, found = pl.realize_degree_sequence(T, a, q, return_witness=True)
        assert ok == bool(witnesses)
        assert len(witnesses) <= 1
        if ok:
            assert tuple(found[e] for e in edges) == witnesses[0]


def test_enumerate_bases_known():
    B = pl.enumerate_bases(pl.path(3), (2, 3, 2))
    assert B.delta_c == 3
    assert B.bases == ((1, 3, 2), (2, 3, 1))
    Bt = pl.enumerate_bases(pl.cycle(3), (1, 1, 1))
    assert Bt.bases == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    Bc = pl.enumerate_bases(pl.complete_bipartite(2, 2), (2, 2, 2, 2))
    assert Bc.bases == ((2, 2, 2, 2),)


def test_enumerate_bases_budget():
    G = pl.complete_bipartite(3, 4)
    with pytest.raises(BudgetExceededError) as exc:
        pl.enumerate_bases(G, (6,) * 7, candidate_cap=10)
    assert (exc.value.cap, exc.value.limit) == ("candidate_cap", 10)


@settings(max_examples=60, deadline=None)
@given(graph_and_bounds(max_n=6, max_c=3))
@example((pl.complete_bipartite(4, 4), (2,) * 8))
@example((pl.complete(6), (3,) * 6))
@example((pl.graph(4, [(1, 2), (3, 4)]), (2, 1, 3, 2)))
@example((pl.graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]), (2, 2, 3, 1, 2)))
def test_enumerate_bases_matches_candidate_filter(gc):
    """The dynamic program finds exactly the vectors a <= c with coordinate
    sum 2*delta_c that `realize_degree_sequence` accepts.  The examples pin
    a perfect b-matching on K(4,4), K6 with slack 0, a disconnected graph
    and an odd cycle with a tail."""
    import itertools

    G, c = gc
    d = pl.delta_c(G, c)
    expected = tuple(
        a for a in itertools.product(*(range(ci + 1) for ci in c))
        if sum(a) == 2 * d and pl.realize_degree_sequence(G, a, d)
    )
    B = pl.enumerate_bases(G, c)
    assert (B.delta_c, B.bases) == (d, expected)


@pytest.mark.parametrize("c", [
    (2,) * 8, (3,) * 8, (2, 3) * 4, (3, 2) * 4,
    (2, 2, 3, 3, 2, 3, 2, 3), (3, 3, 2, 3, 2, 2, 3, 3),
])
def test_enumerate_bases_on_tree_with_many_rejected_candidates(c):
    """On this 8-vertex tree almost every vector a <= c with the right
    coordinate sum is no degree vector, so a candidate filter rejects most
    of what it tests; the bases must match the brute-force enumeration."""
    T = pl.tree_from_parents((1, 1, 1, 4, 1, 4, 4))
    d, bases = brute_bases(T, c)
    B = pl.enumerate_bases(T, c)
    assert (B.delta_c, B.bases) == (d, tuple(bases))


@settings(max_examples=40, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3),
       st.lists(st.integers(1, 3), min_size=5, max_size=5))
@example((pl.graph(4, [(1, 2), (3, 4)]), (2, 1, 3, 2)), [3, 2, 2, 1, 1])
@example((pl.graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]), (2, 2, 3, 1, 2)),
         [3, 1, 2, 2, 3])
def test_enumerate_bases_matches_brute_force_on_two_bounds(gc, more):
    """Two bound vectors on one graph: both basis sets must match the
    brute-force enumeration.  The examples pin a disconnected graph and an
    odd cycle with a tail."""
    G, c = gc
    for bounds in (c, tuple(more[:G.n])):
        d, bases = brute_bases(G, bounds)
        B = pl.enumerate_bases(G, bounds)
        assert (B.delta_c, B.bases) == (d, tuple(bases))


def test_divisor_set_examples():
    B = pl.enumerate_bases(pl.cycle(3), (1, 1, 1))
    pts = pl.divisor_set(B)
    assert len(pts) == 7 and (1, 1, 1) not in pts
    Bc = pl.enumerate_bases(pl.complete_bipartite(2, 2), (2, 2, 2, 2))
    assert len(pl.divisor_set(Bc)) == 81
    for B in (B, Bc):
        pts = pl.divisor_set(B)
        assert (0,) * B.n in pts
        for i in range(B.n):
            e = tuple(1 if j == i else 0 for j in range(B.n))
            assert e in pts


@settings(max_examples=40, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_bases_sum_and_bounds(gc):
    G, c = gc
    B = pl.enumerate_bases(G, c)
    assert B.bases
    for a in B.bases:
        assert all(0 <= ai <= ci for ai, ci in zip(a, c))
        assert sum(a) == 2 * B.delta_c


@settings(max_examples=40, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_symmetric_exchange(gc):
    """Base exchange: a_i > b_i admits j with a_j < b_j and a - e_i + e_j a base."""
    G, c = gc
    B = pl.enumerate_bases(G, c)
    base_set = set(B.bases)
    for a in B.bases:
        for b in B.bases:
            for i in range(G.n):
                if a[i] <= b[i]:
                    continue
                swaps = [
                    j
                    for j in range(G.n)
                    if a[j] < b[j]
                    and tuple(
                        x - (k == i) + (k == j) for k, x in enumerate(a)
                    )
                    in base_set
                ]
                assert swaps, (a, b, i)
