"""The memos of the per-input answers: `enumerate_bases` by the graph, the
bounds and the cap, and its program by their relabelling class, `facets`
by the basis set, and `analyze_polytope` and `delta_vector` by the
polytope and the budget, however a call spells them; the relabellings of
one basis set share one facet scan, one delta vector and one report but
its witness."""

import importlib
import itertools
import pkgutil
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polylevel as pl
from polylevel import bounded, lattice, levelness, polymatroid
from polylevel.bounded import BasisSet
from polylevel.errors import BudgetExceededError
from polylevel.lattice import DEFAULT_NODE_BUDGET
from polylevel.oracle import brute_bases
from polylevel.polymatroid import Polymatroid

from conftest import MEMOS, clear_memos, graph_and_bounds, relabel, relabel_graph


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
    """The memos key on the resolved budget, not on the arguments as
    passed: four spellings of one report are one miss and three hits,
    three of one delta vector one miss and two hits."""
    P = pl.facets(pl.enumerate_bases(pl.path(4), (2, 2, 2, 2)))
    rep = pl.analyze_polytope(P)
    assert pl.int_star_degree(P) == rep.int_star_degree
    assert pl.analyze_polytope(P, DEFAULT_NODE_BUDGET) is rep
    assert pl.analyze_polytope(P, budget=DEFAULT_NODE_BUDGET) is rep
    info = levelness._report.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert rep.scan_bound == 2     # level*: level 2 holds no degree
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


def test_spellings_of_one_bound_vector_share_one_basis_set():
    """c is normalized to a tuple of ints before the memo."""
    G = pl.path(3)
    B = pl.enumerate_bases(G, (2, 3, 2))
    assert pl.enumerate_bases(G, [2, 3, 2]) is B
    info = bounded._bases.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_candidate_cap_errors_are_not_kept():
    """K(3,4) with c = 2 needs a cap above 10 (`test_bounded`): the capped
    call raises every time and leaves the uncapped answer as it was."""
    G, c = pl.complete_bipartite(3, 4), (2,) * 7
    B = pl.enumerate_bases(G, c)
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            pl.enumerate_bases(G, c, candidate_cap=10)
    assert pl.enumerate_bases(G, c) is B
    info = bounded._bases.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 1, 1)


def test_caps_are_separate_entries():
    """A cap is part of the key: a capped answer equals the uncapped one
    but is its own entry."""
    G, c = pl.complete_bipartite(3, 4), (2,) * 7
    B = pl.enumerate_bases(G, c)
    capped = pl.enumerate_bases(G, c, candidate_cap=10**6)
    assert capped == B and capped is not B
    assert pl.enumerate_bases(G, c, candidate_cap=10**6) is capped
    info = bounded._bases.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


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


# --- one facet scan, delta vector and report per relabelling class -------

@st.composite
def relabelled_graphs(draw):
    """A graph with bounds, n <= 6, and a random relabelling of its vertices."""
    G, c = draw(st.one_of(graph_and_bounds(max_n=5, max_c=3), graph_and_bounds(max_n=6, max_c=2)))
    return G, c, tuple(draw(st.permutations(range(1, G.n + 1))))


def _hull(G, c):
    return pl.facets(pl.enumerate_bases(G, c))


# a nested graph hull with interior points, not level*, and a crossing one
# with interior points: both walk their interior for the witness
_NESTED = (pl.graph(6, [(1, 6), (2, 3), (2, 4), (2, 6), (3, 4), (3, 6), (5, 6)]), (3, 2, 2, 3, 3, 3))
_CROSSING = (pl.graph(6, [(1, 2), (1, 4), (2, 3), (3, 6), (4, 6), (5, 6)]), (2, 2, 3, 3, 2, 2))


@settings(max_examples=150, deadline=None)
@given(relabelled_graphs())
@example((*_NESTED, (6, 5, 4, 3, 2, 1)))
@example((*_NESTED, (2, 1, 4, 3, 6, 5)))
@example((*_CROSSING, (3, 1, 2, 6, 4, 5)))
def test_relabelled_hull_gets_its_own_report(case):
    """Built after the hull P of (G, c), the hull Q of a relabelled graph
    is answered from P's class: every field of its report, the witness
    included, and its delta vector equal fresh answers for Q."""
    G, c, perm = case
    clear_memos()               # P is the first hull of its class
    P = _hull(G, c)
    pl.analyze_polytope(P)
    pl.delta_vector(P)
    Q = _hull(*relabel_graph(G, c, perm))
    assert set(Q.upper_facets) == set(relabel(P, perm).upper_facets) and Q.first in (None, P)
    served = pl.analyze_polytope(Q), pl.delta_vector(Q)
    clear_memos()
    fresh = pl.analyze_polytope(Q), pl.delta_vector(Q)
    assert served == fresh
    assert served[0].failure_witness == fresh[0].failure_witness
    assert len(served[0].reduced_degree_table) == len(fresh[0].reduced_degree_table)


def test_relabelled_copy_gets_its_own_witness():
    """Reversing the vertices of K(3,4) with c = 2 keeps the class but not
    the lex-least witness: the copy's is (2, 3, 3, 3, 1, 1, 1), not the
    reversed (3, 3, 3, 2, 1, 1, 1).  The copy's facets, report and delta
    vector are each served by its class: one scan and one delta vector
    for the two hulls, and one report of the class's first hull, from
    which the copy's is made."""
    G, c = relabel_graph(pl.complete_bipartite(3, 4), (2,) * 7, (7, 6, 5, 4, 3, 2, 1))
    k34 = pl.facets(pl.enumerate_bases(pl.complete_bipartite(3, 4), (2,) * 7))
    assert pl.analyze_polytope(k34).failure_witness[:2] == (2, (1, 1, 1, 2, 3, 3, 3))
    copy = _hull(G, c)
    assert copy.first is k34 and k34.first is None
    rep = pl.analyze_polytope(copy)
    assert pl.delta_vector(copy) is pl.delta_vector(k34)
    assert polymatroid._class_facets.cache_info().misses == 1
    assert lattice._delta_vector.cache_info().misses == 1
    assert levelness._report.cache_info()[:2] == (1, 2)     # hits, misses
    assert rep.failure_witness[:2] == (2, (2, 3, 3, 3, 1, 1, 1))
    clear_memos()
    assert pl.analyze_polytope(_hull(G, c)) == rep


def _relabelled_bases(B, perm):
    """B with coordinate i renamed perm[i - 1]."""
    bases = sorted(tuple(a[perm.index(v)] for v in range(1, B.n + 1)) for a in B.bases)
    return BasisSet(B.n, B.delta_c, tuple(bases))


def _census_bases():
    """The basis sets of the connected labelled graphs on 4 vertices with
    c in [1..3]^4, the census of scripts/polymatroid_census.py."""
    return {pl.enumerate_bases(G, c) for G in _connected_graphs(4)
            for c in itertools.product((1, 2, 3), repeat=4)}


def test_census_relabellings_get_fresh_answers():
    """Every basis set of the census, under a random relabelling, after
    the whole census: its facets equal a direct scan of the relabelled
    set, and its report and delta vector equal fresh answers."""
    rng = random.Random(1)
    bases = sorted(_census_bases(), key=lambda B: B.bases)
    for B in bases:
        P = pl.facets(B)
        pl.analyze_polytope(P)
        pl.delta_vector(P)
    served = {}
    for B in bases:
        perm = tuple(rng.sample(range(1, 5), 4))
        Q = pl.facets(_relabelled_bases(B, perm))
        rep = pl.analyze_polytope(Q)
        served[B, perm] = Q, rep, len(rep.reduced_degree_table), pl.delta_vector(Q)
    assert sum(Q.first is not None for Q, *_ in served.values()) > 300
    for (B, perm), (Q, rep, length, dv) in served.items():
        clear_memos()
        relabelled = _relabelled_bases(B, perm)
        scan, _order = polymatroid._class_facets(polymatroid._class_of(relabelled))
        assert Q.upper_facets == scan.upper_facets
        clear_memos()
        fresh = pl.analyze_polytope(scan)
        assert (rep, rep.failure_witness, length) == (
            fresh, fresh.failure_witness, len(fresh.reduced_degree_table))
        assert dv == pl.delta_vector(scan)


def test_class_key_keeps_the_bounds_and_the_type():
    """Hulls that differ only in their bounds, or only in their type, do
    not share answers: a `Polymatroid` and an `HPolytope` with the same
    laminar facets are two memo entries."""
    small, large = (pl.HPolytope(2, (((1,), t), ((2,), t))) for t in (2, 3))
    assert pl.analyze_polytope(small).interior_count_1 == 1
    assert pl.analyze_polytope(large).interior_count_1 == 4
    typed = Polymatroid(2, small.upper_facets)
    assert typed != small and pl.analyze_polytope(typed).interior_count_1 == 1
    assert levelness._report.cache_info()[:2] == (0, 3)     # hits, misses


def _connected_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for k in range(n - 1, len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            if len({v for e in edges for v in e}) == n and pl.is_connected(pl.graph(n, edges)):
                yield pl.graph(n, edges)


def _least_image(B):
    """The relabelling class of B by brute force: the least image over
    all n! relabellings."""
    return B.n, min(tuple(sorted(tuple(a[i] for i in perm) for a in B.bases))
                    for perm in itertools.permutations(range(B.n)))


def test_census_relabelling_classes():
    """The census has 377 basis sets, which fall into 40 relabelling
    classes: the class keys merge every relabelling the brute-force
    classes do."""
    bases = _census_bases()
    assert len(bases) == 377
    keys = {polymatroid._class_of(B) for B in bases}
    assert len(keys) == len({_least_image(B) for B in bases}) == 40


# --- one bases program per relabelling class of (G, c) -------------------

def _invariants_tie(G, c):
    """Do two vertices share (c_v, deg_v, sum of the neighbours' degrees)?
    Read off the adjacency, not off the library."""
    adj = G.adjacency()
    seen = {(c[v - 1], len(adj[v]), sum(len(adj[u]) for u in adj[v])) for v in adj}
    return len(seen) < G.n


@settings(max_examples=100, deadline=None)
@given(relabelled_graphs())
@example((pl.path(3), (1, 2, 3), (2, 3, 1)))       # a 3-cycle: not its own inverse
@example((pl.graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)]), (3, 1, 2, 2), (4, 1, 2, 3)))
def test_relabelled_graph_gets_relabelled_bases(case):
    """Asked after (G, c), a relabelled copy is served the relabelled bases
    of (G, c): they equal a fresh answer and the brute-force bases.  The
    copy is a class hit when the keys agree, which they must when no two
    vertices tie in the key's order, and a labelled hit when perm is a
    symmetry of (G, c)."""
    G, c, perm = case
    clear_memos()               # (G, c) is the first member of its class
    pl.enumerate_bases(G, c)
    H, d = relabel_graph(G, c, perm)
    served = pl.enumerate_bases(H, d)
    same = bounded._class_of(G, c, bounded.DEFAULT_CANDIDATE_CAP) == bounded._class_of(
        H, d, bounded.DEFAULT_CANDIDATE_CAP)
    assert same or _invariants_tie(G, c)
    if (H, d) == (G, c):        # perm is a symmetry of (G, c): a labelled hit
        assert bounded._bases.cache_info().hits == 1
    else:
        assert bounded._class_bases.cache_info()[:2] == (int(same), 2 - same)   # hits, misses
    clear_memos()
    assert served == pl.enumerate_bases(H, d)
    delta, bases = brute_bases(H, d)
    assert (served.delta_c, served.bases) == (delta, tuple(bases))


def test_census_bases_classes():
    """The census's 3,078 inputs have 252 class keys, and 201 relabelling
    classes by brute force (the least image over all 4! relabellings).
    No key holds two classes, so there are never fewer keys than
    classes."""
    inputs = [(G, c) for G in _connected_graphs(4) for c in itertools.product((1, 2, 3), repeat=4)]
    assert len(inputs) == 3078
    classes = {}
    for G, c in inputs:
        least = min((tuple(c[perm.index(v)] for v in range(1, 5)),
                     tuple(sorted(tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in G.edges)))
                    for perm in itertools.permutations(range(1, 5)))
        classes.setdefault(bounded._class_of(G, c, bounded.DEFAULT_CANDIDATE_CAP), set()).add(least)
    assert len(classes) == 252
    assert all(len(held) == 1 for held in classes.values())
    assert len(set().union(*classes.values())) == 201


# K(3,4) with c = 2 and its reversal: a cap of 10 stops the program of each
_K34 = pl.complete_bipartite(3, 4), (2,) * 7
_K34_REVERSED = relabel_graph(*_K34, (7, 6, 5, 4, 3, 2, 1))


def test_a_cap_is_part_of_the_class_key():
    """A relabelled copy asked under a cap of 10 runs its own program and
    raises, although its class under the default cap is known."""
    B = pl.enumerate_bases(*_K34)
    with pytest.raises(BudgetExceededError):
        pl.enumerate_bases(*_K34_REVERSED, candidate_cap=10)
    assert pl.enumerate_bases(*_K34_REVERSED) == _relabelled_bases(B, (7, 6, 5, 4, 3, 2, 1))
    assert bounded._class_bases.cache_info()[:2] == (1, 2)     # hits, misses


def test_a_cap_error_of_a_first_member_is_not_kept():
    """The capped first member raises, and so does its relabelled copy
    under the same cap, by its own program; under the default cap the
    copy then gets its answer, which is the first entry of the class."""
    for G, c in (_K34, _K34_REVERSED):
        with pytest.raises(BudgetExceededError):
            pl.enumerate_bases(G, c, candidate_cap=10)
    assert bounded._class_bases.cache_info().currsize == 0
    served = pl.enumerate_bases(*_K34_REVERSED)
    delta, bases = brute_bases(*_K34_REVERSED)
    assert (served.delta_c, served.bases) == (delta, tuple(bases))
    assert pl.enumerate_bases(*_K34) == _relabelled_bases(served, (7, 6, 5, 4, 3, 2, 1))
    info = bounded._class_bases.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 1)
