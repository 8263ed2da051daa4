import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polylevel as pl
from polylevel.bounded import _first_descent
from polylevel.errors import BudgetExceededError
from polylevel.oracle import brute_bases, delta_c_maxflow

from conftest import graph_and_bounds


def test_delta_known_values():
    assert pl.delta_c(pl.path(3), (2, 3, 2)) == 3
    assert pl.delta_c(pl.cycle(3), (1, 1, 1)) == 1
    assert pl.delta_c(pl.complete_bipartite(3, 4), (2,) * 7) == 6


def test_delta_maxflow_agrees_on_bipartite():
    for m, n in [(1, 2), (2, 2), (2, 3), (3, 4)]:
        G = pl.complete_bipartite(m, n)
        for c in itertools.product((1, 2, 3), repeat=m + n):
            assert pl.delta_c(G, c) == delta_c_maxflow(G, c)
    # path and even cycle are bipartite too
    for G in (pl.path(4), pl.cycle(4)):
        for c in itertools.product((1, 2, 3), repeat=G.n):
            assert pl.delta_c(G, c) == delta_c_maxflow(G, c)


@st.composite
def bipartite_and_bounds(draw, max_side=4, max_c=6):
    """A bipartite graph with sides {1..m} and {m+1..m+k}, no isolated
    vertex and at most 7 vertices, plus a bound vector."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, max_side))
    pairs = [(i, m + j) for i in range(1, m + 1) for j in range(1, k + 1)]
    edges = set(draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    edges |= {(1, v) for v in range(m + 1, m + k + 1) if not any(v in e for e in edges)}
    edges |= {(v, m + 1) for v in range(1, m + 1) if not any(v in e for e in edges)}
    c = tuple(draw(st.integers(1, max_c)) for _ in range(m + k))
    return pl.graph(m + k, edges), c


@settings(max_examples=60, deadline=None)
@given(bipartite_and_bounds())
@example((pl.complete_bipartite(3, 4), (6,) * 7))
def test_delta_matches_maxflow_on_random_bipartite(gc):
    """delta_c, read off the bases dynamic program, equals the max-flow
    value on bipartite graphs with bounds up to 6.  The example pins the
    largest such input, K(3,4) with every bound 6."""
    G, c = gc
    assert pl.delta_c(G, c) == delta_c_maxflow(G, c)


def test_delta_maxflow_rejects_odd_cycle():
    with pytest.raises(ValueError, match="bipartite"):
        delta_c_maxflow(pl.cycle(3), (1, 1, 1))


def test_realize_examples():
    assert pl.realize_degree_sequence(pl.path(3), (2, 3, 1), 3) is True
    assert pl.realize_degree_sequence(pl.cycle(3), (2, 1, 1), 2) is True
    assert pl.realize_degree_sequence(pl.path(3), (3, 0, 3), 3) is False


def test_realize_degree_sum_mismatch():
    with pytest.raises(ValueError, match="sum"):
        pl.realize_degree_sequence(pl.path(3), (1, 1, 1), 2)


def test_realize_tree_witness_unique():
    # on a tree the edge weights are forced leaf-inward
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
        assert len(witnesses) <= 1
        assert pl.realize_degree_sequence(T, a, q) == bool(witnesses)


def _degree_vectors(G, box):
    """Degree vectors of every edge multiset of G with degrees <= box, by
    walking all edge multiplicity vectors."""
    edges = G.edge_list()
    deg = [0] * G.n
    found = set()

    def walk(k):
        if k == len(edges):
            found.add(tuple(deg))
            return
        i, j = edges[k]
        for w in range(min(box[i - 1] - deg[i - 1], box[j - 1] - deg[j - 1]) + 1):
            deg[i - 1] += w
            deg[j - 1] += w
            walk(k + 1)
            deg[i - 1] -= w
            deg[j - 1] -= w

    walk(0)
    return found


@settings(max_examples=30, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
@example((pl.path(3), (3, 3, 3)))
@example((pl.tree_from_parents((1, 1, 2, 2)), (3,) * 5))
@example((pl.complete(5), (3,) * 5))
def test_realize_matches_naive_enumeration(gc):
    """`realize_degree_sequence` accepts exactly the degree vectors of edge
    multisets.  Every a <= box with a positive even sum is asked, zero
    entries included.  The examples pin the path with (3, 0, 3), a tree
    and K5."""
    G, box = gc
    degrees = _degree_vectors(G, box)
    for a in itertools.product(*(range(b + 1) for b in box)):
        q, odd = divmod(sum(a), 2)
        if q and not odd:
            assert pl.realize_degree_sequence(G, a, q) == (a in degrees), a


def test_non_integer_bounds_are_rejected():
    import numpy as np

    with pytest.raises(ValueError, match="integers"):
        pl.enumerate_bases(pl.path(3), (2, 2.5, 2))
    with pytest.raises(ValueError, match="integers"):
        pl.realize_degree_sequence(pl.path(3), (2, 2.0, 0), 2)
    B = pl.enumerate_bases(pl.path(3), np.array([2, 3, 2]))
    assert B == pl.enumerate_bases(pl.path(3), (2, 3, 2))
    assert all(type(x) is int for a in B.bases for x in a)


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


@settings(max_examples=40, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3), st.integers(1, 30))
@example((pl.complete_bipartite(3, 4), (2,) * 7), 9)
@example((pl.path(3), (2, 3, 2)), 2)
def test_candidate_cap_never_truncates(gc, cap):
    """The last layer of the dynamic program holds every basis, so a cap
    below the number of bases raises, with the cap's name and limit; a
    result returned under any cap equals the uncapped one."""
    G, c = gc
    B = pl.enumerate_bases(G, c)
    try:
        capped = pl.enumerate_bases(G, c, candidate_cap=cap)
    except BudgetExceededError as exc:
        assert (exc.cap, exc.limit) == ("candidate_cap", cap)
    else:
        assert capped == B
        assert cap >= len(B.bases)


@pytest.mark.parametrize("cap", [0, -1, 1.5, "x"])
def test_candidate_cap_must_be_a_positive_integer(cap):
    """-1 was reported as "exceed the cap -1"."""
    with pytest.raises(ValueError, match="candidate_cap"):
        pl.enumerate_bases(pl.path(4), (2, 2, 2, 2), candidate_cap=cap)


def test_candidate_cap_bounds_every_layer():
    """K(3,4) with c = 2 has ten bases, but an earlier layer of the
    dynamic program holds more states than that, so a cap of 10 raises."""
    G, c = pl.complete_bipartite(3, 4), (2,) * 7
    assert len(pl.enumerate_bases(G, c).bases) == 10
    with pytest.raises(BudgetExceededError) as exc:
        pl.enumerate_bases(G, c, candidate_cap=10)
    assert (exc.value.cap, exc.value.limit) == ("candidate_cap", 10)


@pytest.mark.parametrize("G, c, greedy, delta", [
    (pl.cycle(7), (3,) * 7, 9, 10),
    (pl.complete(5), (3,) * 5, 6, 7),
    (pl.graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]), (2, 2, 3, 1, 2), 3, 4),
], ids=["cycle7", "K5", "odd-cycle-with-tail"])
def test_enumerate_bases_beyond_a_weak_incumbent(G, c, greedy, delta):
    """Inputs where the greedy first descent falls short of delta_c, so the
    dynamic program prunes with a slack larger than the true one and must
    drop the final states above the least residual sum."""
    assert _first_descent(G.edge_list(), c) == greedy < delta
    d, bases = brute_bases(G, c)
    B = pl.enumerate_bases(G, c)
    assert d == delta
    assert (B.delta_c, B.bases) == (d, tuple(bases))


@settings(max_examples=60, deadline=None)
@given(graph_and_bounds(max_n=6, max_c=3))
@example((pl.complete_bipartite(4, 4), (2,) * 8))
@example((pl.complete(6), (3,) * 6))
@example((pl.graph(4, [(1, 2), (3, 4)]), (2, 1, 3, 2)))
@example((pl.graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]), (2, 2, 3, 1, 2)))
def test_enumerate_bases_matches_candidate_filter(gc):
    """The dynamic program finds exactly the bases that the brute-force
    enumeration of edge multiplicities finds.  The examples pin a perfect
    b-matching on K(4,4), K6 with slack 0, a disconnected graph and an odd
    cycle with a tail."""
    G, c = gc
    d, bases = brute_bases(G, c)
    B = pl.enumerate_bases(G, c)
    assert (B.delta_c, B.bases) == (d, tuple(bases))


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
