"""The memos of the per-polymatroid answers: `facets` by the basis set,
`analyze_polytope` by the polytope, the scan bound and the budget, and
shared by the relabellings of the polytope, and `delta_vector` by the
polytope and the budget, however a call spells them."""

import importlib
import itertools
import pkgutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polylevel as pl
from polylevel import lattice, levelness
from polylevel.errors import BudgetExceededError
from polylevel.lattice import DEFAULT_NODE_BUDGET
from polylevel.polymatroid import Polymatroid

from conftest import MEMOS, NON_MONOTONE, clear_memos, facet_systems, graph_and_bounds, relabel


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


class _Index:
    """An integer-like budget: `operator.index` accepts it."""

    def __index__(self):
        return DEFAULT_NODE_BUDGET


def test_memos_key_on_the_checked_budget():
    """The budget is checked, and made an int, before the memo: a budget
    that is only integer-like is the same entry as the int."""
    P = pl.facets(pl.enumerate_bases(pl.path(4), (2, 2, 2, 2)))
    assert pl.analyze_polytope(P, budget=_Index()) is pl.analyze_polytope(P)
    assert pl.delta_vector(P, budget=_Index()) is pl.delta_vector(P)


def test_the_memo_fixture_clears_every_memo():
    """Every `lru_cache` of the package is emptied before each test by the
    autouse fixture of conftest, which clears `MEMOS` and the structures."""
    caches = set()
    for info in pkgutil.iter_modules(pl.__path__):
        module = importlib.import_module(f"polylevel.{info.name}")
        caches.update(obj for obj in vars(module).values()
                      if callable(getattr(obj, "cache_clear", None))
                      and callable(getattr(obj, "cache_info", None)))
    assert lattice._structure in caches
    assert caches <= {*MEMOS, lattice._structure}


# --- one report per relabelling class --------------------------------------

@st.composite
def relabelled_hulls(draw):
    """A graph hull with n <= 6 or a laminar facet system, and a random
    relabelling of it."""
    gc = st.one_of(graph_and_bounds(max_n=5, max_c=3), graph_and_bounds(max_n=6, max_c=2))
    P = draw(st.one_of(gc.map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
                       facet_systems(max_n=5, max_t=4, laminar=True)))
    return P, relabel(P, draw(st.permutations(range(1, P.n + 1))))


def _graph_hull(n, edges, c):
    return pl.facets(pl.enumerate_bases(pl.graph(n, edges), c))


# a nested graph hull with interior points, not level*, and a crossing one
# with interior points: both walk their interior for the witness
_NESTED = _graph_hull(6, [(1, 6), (2, 3), (2, 4), (2, 6), (3, 4), (3, 6), (5, 6)], (3, 2, 2, 3, 3, 3))
_CROSSING = _graph_hull(6, [(1, 2), (1, 4), (2, 3), (3, 6), (4, 6), (5, 6)], (2, 2, 3, 3, 2, 2))


@settings(max_examples=150, deadline=None)
@given(relabelled_hulls())
@example((_NESTED, relabel(_NESTED, (6, 5, 4, 3, 2, 1))))
@example((_NESTED, relabel(_NESTED, (2, 1, 4, 3, 6, 5))))
@example((_CROSSING, relabel(_CROSSING, (3, 1, 2, 6, 4, 5))))
@example((NON_MONOTONE, relabel(NON_MONOTONE, (4, 3, 2, 1))))
def test_relabelled_hull_gets_its_own_report(hulls):
    """Analysed after P, a relabelling Q of P is answered from P's class:
    every field, the witness included, equals a fresh report of Q."""
    P, Q = hulls
    pl.analyze_polytope(P)
    served = pl.analyze_polytope(Q)
    clear_memos()
    fresh = pl.analyze_polytope(Q)
    assert served == fresh
    assert served.failure_witness == fresh.failure_witness
    assert len(served.reduced_degree_table) == len(fresh.reduced_degree_table)


def test_relabelled_copy_gets_its_own_witness(k34_hull):
    """Reversing the coordinates of K(3,4) with c = 2 keeps the class but
    not the lex-least witness: the copy's is (2, 3, 3, 3, 1, 1, 1), not
    the reversed (3, 3, 3, 2, 1, 1, 1)."""
    copy = relabel(k34_hull, (7, 6, 5, 4, 3, 2, 1))
    assert pl.analyze_polytope(k34_hull).failure_witness[:2] == (2, (1, 1, 1, 2, 3, 3, 3))
    rep = pl.analyze_polytope(copy)
    info = levelness._class_report.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert rep.failure_witness[:2] == (2, (2, 3, 3, 3, 1, 1, 1))
    clear_memos()
    assert pl.analyze_polytope(copy) == rep


def test_class_key_keeps_the_bounds_and_the_type():
    """Hulls that differ only in their bounds, or only in their type, are
    not relabellings of one another.  `Polymatroid` claims the integer
    decomposition property, and the crossing `NON_MONOTONE` (level*) marked
    as one is wrongly tested as such; it must not answer the true type."""
    small, large = (pl.HPolytope(2, (((1,), t), ((2,), t))) for t in (2, 3))
    assert pl.analyze_polytope(small).interior_count_1 == 1
    assert pl.analyze_polytope(large).interior_count_1 == 4
    false_claim = Polymatroid(NON_MONOTONE.n, NON_MONOTONE.upper_facets)
    assert not pl.analyze_polytope(false_claim).level
    assert pl.analyze_polytope(NON_MONOTONE).level


def test_equal_facet_profiles_are_not_one_class():
    """x_i + x_j <= 4 over the edges of a 6-cycle, and over those of two
    triangles: every coordinate lies in two such facets, so the profiles
    agree, but the facets do not, and neither do the interior counts (the
    points of {1, 2}^6 with no two adjacent 2s)."""
    cycle = pl.HPolytope(6, tuple(((i, i + 1), 4) for i in range(1, 6)) + (((1, 6), 4),))
    triangles = pl.HPolytope(6, tuple((A, 4) for A in ((1, 2), (1, 3), (2, 3),
                                                        (4, 5), (4, 6), (5, 6))))
    assert pl.analyze_polytope(cycle, max_level=2).interior_count_1 == 18
    assert pl.analyze_polytope(triangles, max_level=2).interior_count_1 == 16


def _connected_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for k in range(n - 1, len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            if len({v for e in edges for v in e}) == n and pl.is_connected(pl.graph(n, edges)):
                yield pl.graph(n, edges)


def _least_image(P):
    """The relabelling class of P by brute force: the least image over
    all n! relabellings."""
    return type(P), P.n, min(
        tuple(sorted((len(A), tuple(sorted(perm[i - 1] for i in A)), t)
                     for A, t in P.upper_facets))
        for perm in itertools.permutations(range(1, P.n + 1)))


def test_census_relabelling_classes():
    """The connected labelled graphs on 4 vertices with c in [1..3]^4 (the
    census of scripts/polymatroid_census.py) have 377 basis sets, whose
    hulls fall into 40 relabelling classes: the class keys merge every
    relabelling the brute-force classes do."""
    bases = {pl.enumerate_bases(G, c) for G in _connected_graphs(4)
             for c in itertools.product((1, 2, 3), repeat=4)}
    hulls = [pl.facets(B) for B in bases]
    assert len(bases) == 377
    keys = {levelness._relabelling(P) for P in hulls}
    assert len(keys) == len({_least_image(P) for P in hulls}) == 40
