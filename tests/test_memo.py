"""The memos of the per-polymatroid answers: `facets` by the basis set,
`analyze_polytope` by the polytope, the scan bound and the budget, and
`delta_vector` by the polytope and the budget, however a call spells
them."""

import pytest
from hypothesis import given, settings

import polylevel as pl
from polylevel import lattice, levelness
from polylevel.errors import BudgetExceededError
from polylevel.lattice import DEFAULT_NODE_BUDGET

from conftest import MEMOS, graph_and_bounds


def _answers(G, c):
    P = pl.facets(pl.enumerate_bases(G, c))
    return P, pl.analyze_polytope(P), pl.delta_vector(P)


@settings(max_examples=40, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_memoized_answers_equal_fresh_ones(gc):
    """Report equality compares the degree tables by polytope and scanned
    levels."""
    kept = _answers(*gc)
    assert all(a is b for a, b in zip(_answers(*gc), kept))
    for memo in MEMOS:
        memo.cache_clear()
    assert _answers(*gc) == kept


def test_graphs_with_one_basis_set_share_the_facets():
    """The path 1-2-3 and the triangle, both with c = (1, 2, 1), have the
    one basis (1, 2, 1): the triangle's edge 13 is in no basis."""
    B1 = pl.enumerate_bases(pl.path(3), (1, 2, 1))
    B2 = pl.enumerate_bases(pl.cycle(3), (1, 2, 1))
    assert B1 == B2 and B1 is not B2
    P1 = pl.facets(B1)
    hits = pl.facets.cache_info().hits
    P2 = pl.facets(B2)
    assert pl.facets.cache_info().hits == hits + 1
    assert P2 == P1


def test_int_star_degree_and_spectrum_share_one_report(path3_hull):
    """Both read the memoized report."""
    assert pl.int_star_degree(path3_hull) == 1
    assert pl.conjecture_spectrum(path3_hull)
    info = levelness._report.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_level_star_reads_the_report(k34_hull):
    """`level_star` is the report's `level` and witness: asking it, then
    for the report, is one miss and one hit."""
    verdict = pl.level_star(k34_hull)
    rep = pl.analyze_polytope(k34_hull)
    info = levelness._report.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert verdict == (rep.level, rep.failure_witness[:2]) == (False, (2, (1, 1, 1, 2, 3, 3, 3)))


def test_spellings_of_one_call_share_one_entry():
    """The memos key on the resolved scan bound and budget, not on the
    arguments as passed: four spellings of one report are one miss and
    three hits, three of one delta vector one miss and two hits."""
    P = pl.facets(pl.enumerate_bases(pl.path(4), (2, 2, 2, 2)))
    rep = pl.analyze_polytope(P)
    assert pl.int_star_degree(P) == rep.int_star_degree
    assert pl.analyze_polytope(P, max_level=3) is rep
    assert pl.analyze_polytope(P, budget=DEFAULT_NODE_BUDGET) is rep
    info = levelness._report.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert rep.scan_bound == 3
    dv = pl.delta_vector(P)
    assert pl.delta_vector(P, DEFAULT_NODE_BUDGET) is dv
    assert pl.delta_vector(P, budget=DEFAULT_NODE_BUDGET) is dv
    info = lattice._delta_vector.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_budget_errors_are_not_kept(k34_hull):
    with pytest.raises(BudgetExceededError):
        pl.analyze_polytope(k34_hull, budget=1)
    assert pl.analyze_polytope(k34_hull).pseudo_gorenstein
    with pytest.raises(BudgetExceededError):
        pl.analyze_polytope(k34_hull, budget=1)
    assert levelness._report.cache_info().currsize == 1
