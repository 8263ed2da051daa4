import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polylevel as pl
from polylevel.criteria import _pseudo_gorenstein_from_bases
from polylevel.oracle import brute_interior_points

from conftest import graph_and_bounds


def test_bipartite_spec_normalization():
    spec = pl.bipartite_spec(3, 4, (2,) * 7)          # heavy side is the 4-side
    assert (spec.m, spec.n) == (4, 3)
    assert spec.heavy_sum == 8 and spec.small_sum == 6
    assert spec.unsaturated == (1, 2, 3, 4)
    with pytest.raises(ValueError, match="equal"):
        pl.bipartite_spec(2, 2, (2, 2, 2, 2))
    with pytest.raises(ValueError, match="above the small side"):
        pl.BipartiteSpec(2, 1, (2, 2, 1))


def test_bipartite_interior_nonempty_examples():
    assert pl.bipartite_interior_nonempty(pl.bipartite_spec(3, 4, (2,) * 7))
    spec = pl.BipartiteSpec(4, 1, (2, 2, 2, 2, 4))
    assert not pl.bipartite_interior_nonempty(spec)    # 4 < m + 1 = 5
    spec2 = pl.BipartiteSpec(2, 1, (2, 2, 3))
    assert pl.bipartite_interior_nonempty(spec2)


def test_bipartite_criterion_examples():
    ok, wit = pl.bipartite_level_criterion(pl.BipartiteSpec(2, 1, (2, 2, 3)))
    assert ok and wit is None
    ok, wit = pl.bipartite_level_criterion(pl.bipartite_spec(3, 4, (2,) * 7))
    assert not ok and wit == (1, (1, 2, 3, 4))
    ok, wit = pl.bipartite_level_criterion(pl.BipartiteSpec(3, 1, (2, 2, 2, 4)))
    assert ok
    with pytest.raises(ValueError, match="hypotheses"):
        pl.bipartite_level_criterion(pl.BipartiteSpec(4, 1, (2, 2, 2, 2, 4)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_bipartite_criterion_matches_direct(m, n, data):
    c = tuple(data.draw(st.integers(1, 4)) for _ in range(m + n))
    try:
        spec = pl.bipartite_spec(m, n, c)
    except ValueError:
        return
    if not pl.bipartite_interior_nonempty(spec):
        return
    P = pl.facets(pl.enumerate_bases(pl.complete_bipartite(spec.m, spec.n), spec.c))
    assert pl.bipartite_level_criterion(spec)[0] == pl.level_star(P)[0]


def test_veronese_criterion_examples():
    ok, wit = pl.veronese_level_criterion(pl.VeroneseSpec(n=4, a=6, c=(5, 3, 3, 3)))
    assert not ok and wit == (2, (2, 3, 4))
    ok, _ = pl.veronese_level_criterion(pl.VeroneseSpec(n=3, a=4, c=(2, 2, 2)))
    assert ok
    for a in range(6, 12):
        ok, _ = pl.veronese_level_criterion(pl.VeroneseSpec(n=5, a=a, c=(3, 3, 2, 2, 2)))
        assert not ok


def test_uniform_formula_examples():
    for n in range(3, 9):
        for a in range(n + 1, 2 * n):
            assert pl.veronese_uniform_formula(n, 2, a) == (a == n + 1)
    assert pl.veronese_uniform_formula(4, 3, 7)     # even midpoint
    assert pl.veronese_uniform_formula(5, 3, 9)     # odd midpoint
    with pytest.raises(ValueError):
        pl.veronese_uniform_formula(3, 2, 7)        # a >= n*c


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(2, 5), st.data())
def test_uniform_formula_matches_criterion(n, c, data):
    lo, hi = max(c + 1, n + 1), n * c - 1
    if lo > hi:
        return
    a = data.draw(st.integers(lo, hi))
    spec = pl.VeroneseSpec(n=n, a=a, c=(c,) * n)
    assert pl.veronese_uniform_formula(n, c, a) == pl.veronese_level_criterion(spec)[0]


def test_tree_rule_examples():
    for n in range(2, 11):
        assert pl.tree_labeling_pseudo_gorenstein(pl.path(n)) == (n != 3)
    assert not pl.tree_labeling_pseudo_gorenstein(pl.star(3))
    spider = pl.tree_from_parents((1, 1, 1, 2, 3, 4))   # three legs of length 2
    assert pl.tree_labeling_pseudo_gorenstein(spider)
    P = pl.facets(pl.enumerate_bases(spider, (2,) * 7))
    assert pl.pseudo_gorenstein_star(P)


def test_bipartite_labeling_classification():
    assert pl.bipartite_labeling_classification(4, 3)
    assert pl.bipartite_labeling_classification(2, 2)
    assert not pl.bipartite_labeling_classification(4, 2)
    assert not pl.bipartite_labeling_classification(2, 4)  # same graph, normalized
    assert pl.bipartite_labeling_classification(3, 4)
    assert pl.bipartite_labeling_classification(1, 1)
    with pytest.raises(ValueError):
        pl.bipartite_labeling_classification(0, 2)


def test_dilation_containment_examples():
    assert pl.dilation_containment(pl.cycle(3), (1, 1, 1), 2) == (True, True)
    assert pl.dilation_containment(pl.path(3), (2, 3, 2), 1) == (True, False)
    holds, strict = pl.dilation_containment(pl.path(3), (2, 3, 2), 2)
    assert holds and not strict    # the two systems coincide here


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([pl.path(3), pl.path(4), pl.cycle(3), pl.cycle(4), pl.star(3)]),
       st.integers(1, 3), st.data())
def test_dilation_containment_always_holds(G, N, data):
    c = tuple(data.draw(st.integers(1, 3)) for _ in range(G.n))
    holds, _strict = pl.dilation_containment(G, c, N)
    assert holds


def test_search_labeling_examples():
    assert pl.search_labeling(pl.path(3), 3) is None
    assert pl.search_labeling(pl.path(4), 2) == (2, 2, 2, 2)
    assert pl.search_labeling(pl.complete_bipartite(3, 4), 2) == (2,) * 7
    assert pl.search_labeling(pl.path(2), 2) == (2, 2)
    with pytest.raises(ValueError, match="integer"):
        pl.search_labeling(pl.path(3), 2.5)


@settings(max_examples=40, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3), st.data())
def test_unit_bound_leaves_no_interior(gc, data):
    """The search's prune: a bound c_i = 1 gives a hull without interior."""
    G, c = gc
    i = data.draw(st.integers(0, G.n - 1))
    c = c[:i] + (1,) + c[i + 1:]
    B = pl.enumerate_bases(G, c)
    assert not _pseudo_gorenstein_from_bases(B)
    assert not pl.pseudo_gorenstein_star(pl.facets(B))


def _unpruned_search(G, c_max):
    for c in itertools.product(range(1, c_max + 1), repeat=G.n):
        if _pseudo_gorenstein_from_bases(pl.enumerate_bases(G, c)):
            return c
    return None


SEARCH_GRAPHS = {
    **{f"P{n}": pl.path(n) for n in (2, 3, 4, 5)},
    **{f"C{n}": pl.cycle(n) for n in (3, 4, 5)},
    **{f"K(1,{k})": pl.star(k) for k in (2, 3, 4)},
    **{f"K({m},{k})": pl.complete_bipartite(m, k) for m, k in ((2, 2), (2, 3))},
}


@pytest.mark.parametrize("name", SEARCH_GRAPHS)
def test_search_labeling_matches_unpruned_search(name):
    """Skipping the vectors with a unit bound changes no search result."""
    G = SEARCH_GRAPHS[name]
    for c_max in (1, 2, 3):
        assert pl.search_labeling(G, c_max) == _unpruned_search(G, c_max)


@settings(max_examples=60, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_interior_points_are_those_below_a_basis_in_every_direction(gc):
    """The lemma behind the scan: x is interior iff x >= 1 and every
    x + e_j lies below some basis."""
    G, c = gc
    B = pl.enumerate_bases(G, c)
    def below_a_basis(y):
        return any(all(bk >= yk for bk, yk in zip(b, y)) for b in B.bases)

    top = [max(b[i] for b in B.bases) for i in range(G.n)]
    below = {x for x in itertools.product(*(range(1, t + 1) for t in top))
             if all(below_a_basis(x[:j] + (x[j] + 1,) + x[j + 1:]) for j in range(G.n))}
    assert below == set(brute_interior_points(pl.facets(B), 1))


@settings(max_examples=60, deadline=None)
@given(graph_and_bounds(max_n=6, max_c=4))
@example((pl.path(4), (2, 2, 2, 2)))
@example((pl.complete_bipartite(3, 4), (2,) * 7))
@example((pl.path(3), (2, 3, 2)))
@example((pl.path(3), (3, 2, 2)))
@example((pl.path(2), (4, 2)))
@example((pl.graph(4, [(1, 2), (2, 3), (2, 4)]), (4, 4, 4, 4)))
def test_fast_interior_count_matches_facet_route(gc):
    """The bitmask scan over the bases equals the facet-based
    pseudo-Gorenstein* verdict.  The first three examples pin two hulls
    with one interior point and one with two; the last three are where a
    scan that keeps bases with a zero entry, one that counts a basis
    >= 1 + 2e_i from b_i >= 2 alone, and one that ignores b_i >= 3 go
    wrong."""
    G, c = gc
    B = pl.enumerate_bases(G, c)
    fast = _pseudo_gorenstein_from_bases(B)
    direct = pl.pseudo_gorenstein_star(pl.facets(B))
    assert fast == direct

