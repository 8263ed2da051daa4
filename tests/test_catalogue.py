"""The hard hulls of `catalogue` that fit a tier-1 run, analysed at their
pinned work budgets."""

import pytest

import polylevel as pl

from catalogue import CATALOGUE


def _answers(hull, budget):
    B = pl.enumerate_bases(pl.graph(hull.n, hull.edges), hull.c)
    rep = pl.analyze_polytope(pl.facets(B), budget=budget)
    return {"bases": len(B.bases), "interior": rep.interior_count_1, "level": rep.level,
            "int_star_degree": rep.int_star_degree,
            "witness": rep.failure_witness and rep.failure_witness[:2]}


@pytest.mark.parametrize("hull", [h for h in CATALOGUE if h.budget is not None],
                         ids=lambda h: h.name)
def test_catalogue_hull_fits_its_budget(hull):
    """The report of the hull at its budget gives its recorded answers."""
    got = _answers(hull, hull.budget)
    assert {key: got[key] for key in hull.answers} == hull.answers


def test_catalogue_entries_are_graphs():
    """Every entry, run or not, is a graph with one bound per vertex and
    names the layer it stresses; the names are distinct."""
    assert len({h.name for h in CATALOGUE}) == len(CATALOGUE)
    for hull in CATALOGUE:
        assert pl.graph(hull.n, hull.edges).n == len(hull.c) == hull.n
        assert hull.stresses
        assert set(hull.answers) <= {"bases", "interior", "level", "int_star_degree", "witness"}
