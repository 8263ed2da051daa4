import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import polylevel as pl
from polylevel import levelness
from polylevel.errors import BudgetExceededError
from polylevel.lattice import (
    _interior_at,
    _normality_scan,
    _restrict,
    _split_exists,
    _split_exists_dfs,
    _split_feasible_laminar,
    _structure,
    iter_lattice_points,
)
from polylevel.levelness import (
    _cost_rows,
    _is_degree,
    _rank_fails,
    _witness,
)
from polylevel.oracle import (
    brute_interior_points,
    brute_level_star,
    brute_reduced_degree,
)
from polylevel.polymatroid import Polymatroid

from conftest import (
    CROSSING_GRAPHS,
    admissible,
    aggregates_disjoint,
    crosses,
    crossing_systems,
    facet_systems,
    graph_and_bounds,
    is_integral_polymatroid,
    relabel_graph,
    system,
)


@pytest.fixture(scope="module")
def veronese_5333():
    return pl.veronese_polytope(pl.VeroneseSpec(n=4, a=6, c=(5, 3, 3, 3)))


def test_pseudo_gorenstein(k34_hull, triangle_hull, veronese_5333):
    assert pl.pseudo_gorenstein_star(k34_hull)
    assert not pl.pseudo_gorenstein_star(veronese_5333)   # five interior points
    assert not pl.pseudo_gorenstein_star(triangle_hull)   # empty interior


def test_reduced_degree_worked_example(veronese_5333):
    assert pl.reduced_degree(veronese_5333, (8, 1, 1, 1), 2) == 2
    assert pl.reduced_degree(veronese_5333, (14, 1, 1, 1), 3) == 3
    for a in pl.lattice_points(veronese_5333, 1, "interior"):
        assert pl.reduced_degree(veronese_5333, a, 1) == 1


def test_reduced_degree_validates_interior(veronese_5333):
    with pytest.raises(ValueError, match="interior"):
        pl.reduced_degree(veronese_5333, (0, 0, 0, 0), 2)
    with pytest.raises(ValueError, match="interior"):
        pl.reduced_degree(veronese_5333, (9, 1, 1, 1), 2)   # on the boundary sum


def test_reduced_degree_rejects_non_integer_points(path3_hull):
    with pytest.raises(ValueError, match="integers"):
        pl.reduced_degree(path3_hull, (1.5, 2, 1), 2)


def test_int_star_degree_examples(path3_hull, veronese_5333):
    assert pl.int_star_degree(path3_hull) == 1
    assert pl.int_star_degree(veronese_5333) == 3
    for n in (3, 4, 5):
        Q = pl.veronese_polytope(pl.VeroneseSpec(n=n, a=n + 1, c=(n,) + (2,) * (n - 1)))
        assert pl.int_star_degree(Q) == n - 1
        assert pl.conjecture_spectrum(Q)


def test_int_star_degree_of_the_simplices():
    """The simplex Delta_n has codegree n + 1: its first interior point,
    the all-ones point of (n+1)*Delta_n, has reduced degree n + 1, the
    largest the canonical module allows.  So the scan starts at n + 1, not
    at 2, and the spectrum fails, as no level 2 <= i <= n holds a degree."""
    for n in (2, 3):
        simplex = pl.HPolytope(n, ((tuple(range(1, n + 1)), 1),))
        rep = pl.analyze_polytope(simplex)
        assert (rep.int_star_degree, rep.scan_bound) == (n + 1, n + 2)
        assert pl.int_star_degree(simplex) == n + 1
        assert pl.conjecture_spectrum(simplex) is False
        assert pl.level_star(simplex) == (False, None)
        assert brute_reduced_degree(simplex, (1,) * n, n + 1) == n + 1


@pytest.mark.parametrize("G, c", [(pl.path(3), (1, 1, 1)),
                                  (pl.graph(4, [(1, 2), (1, 3), (1, 4)]), (1, 1, 1, 1))],
                         ids=["path3", "star3"])
def test_int_star_degree_n_with_empty_interior(G, c):
    """Two graph hulls with an empty interior and int* degree n, above the
    old default scan max(2, n - 1): the flat oracle finds a point of
    reduced degree n at level n and none above it up to level n + 2."""
    P = pl.facets(pl.enumerate_bases(G, c))
    assert pl.count_lattice_points(P, 1, "interior") == 0
    rep = pl.analyze_polytope(P)
    flat = _flat_degrees(P, P.n + 2)
    assert rep.int_star_degree == max(flat.values()) == P.n
    assert rep.scan_bound == P.n + 1


@pytest.mark.parametrize("c", [(1, 1), (1, 3)])
def test_int_star_degree_empty_interior_reads_level_2(c):
    """The hull of path(2) is the unit square: no interior point, but every
    interior point of 2*P has a degree, and the default scan reaches
    level 2 for the int* degree as it does for level*."""
    P = pl.facets(pl.enumerate_bases(pl.path(2), c))
    assert pl.count_lattice_points(P, 1, "interior") == 0
    want = max(brute_reduced_degree(P, a, 2) for a in brute_interior_points(P, 2))
    assert pl.int_star_degree(P) == want == 2


def test_level_star_witnesses(path3_hull, k34_hull):
    assert pl.level_star(path3_hull) == (True, None)
    lv, wit = pl.level_star(k34_hull)
    assert (lv, wit) == (False, (2, (1, 1, 1, 2, 3, 3, 3)))
    N, a = wit
    assert pl.membership(k34_hull, a, 2, "interior")
    # the witness reproduces the known failure: subtracting the unique
    # interior point leaves a vector outside the hull
    assert not pl.membership(k34_hull, tuple(x - 1 for x in a), 1, "full")
    # lex-least: every lex-smaller interior point of the double dilate splits
    for b in pl.lattice_points(k34_hull, 2, "interior"):
        if b >= a:
            break
        assert pl.membership(k34_hull, tuple(x - 1 for x in b), 1, "full")


def test_witness_has_reduced_degree_at_least_two(k34_hull):
    lv, (N, a) = pl.level_star(k34_hull)
    assert not lv
    assert pl.reduced_degree(k34_hull, a, N) >= 2


def test_conjecture_spectrum_vacuous(path3_hull):
    assert pl.conjecture_spectrum(path3_hull)   # degree 1: nothing to realize


def _codegree(P):
    return next(N for N in itertools.count(1) if _interior_at(P, N))


def _check_interval(P):
    """The theorem of the `levelness` docstring on P: the levels 2..n + 2
    that hold a degree, each asked by `_is_degree`, are the interval from
    max(2, codegree) up to the level below the one where the report's scan
    stopped; the int* degree is its maximum, or 1, the table covers
    max(2, codegree) to the stop, the spectrum is read off the same set,
    and with an interior point the witness is at level 2."""
    degrees = [N for N in range(2, P.n + 3) if _is_degree(P, N, 10**8)]
    codegree = _codegree(P)
    start = max(2, codegree)
    rep = pl.analyze_polytope(P)
    assert degrees == list(range(start, rep.scan_bound))
    assert rep.int_star_degree == max(degrees, default=1)
    assert rep.reduced_degree_table == levelness._DegreeTable(P, range(start, rep.scan_bound + 1), 1)
    assert rep.conjecture_spectrum_holds == all(i in degrees for i in range(2, rep.int_star_degree))
    if codegree == 1:
        assert rep.level == (not degrees) == (rep.failure_witness is None)
        assert rep.level or rep.failure_witness[0] == 2


@settings(max_examples=60, deadline=None)
@given(graph_and_bounds(max_n=6, max_c=3))
def test_degrees_form_an_interval(gc):
    """Graph hulls with n <= 6, crossing ones included."""
    _check_interval(pl.facets(pl.enumerate_bases(*gc)))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(crossing_systems(max_n=5, max_t=3))
def test_degrees_form_an_interval_on_crossing_polymatroids(P):
    """Hand-built polymatroids whose aggregates cross, drawn on their own
    so that every example is one."""
    assert crosses(P.upper_facets) and isinstance(P, Polymatroid)
    _check_interval(P)


@settings(max_examples=40, deadline=None)
@given(facet_systems(max_n=5, max_t=3, laminar=True))
def test_laminar_systems_are_integral_polymatroids(P):
    """The `levelness` docstring's claim that the theorem covers a laminar
    `HPolytope`: it is an integral polymatroid, by the flat referee.  The
    degrees of such a system form an interval too."""
    assert not crosses(P.upper_facets) and type(P) is pl.HPolytope
    assert is_integral_polymatroid(P)
    _check_interval(P)


def test_a_degree_above_n_plus_1_is_an_internal_error(monkeypatch):
    """The canonical module bounds every degree by n + 1, so a level n + 2
    that holds one is a fault: the scan raises there, and neither runs on
    nor truncates the answer."""
    monkeypatch.setattr(levelness, "_is_degree", lambda P, N, budget: True)
    square = pl.HPolytope(2, (((1,), 1), ((2,), 1)))
    with pytest.raises(RuntimeError, match=r"level 4 holds a reduced degree above n \+ 1"):
        pl.analyze_polytope(square)


@settings(max_examples=30, deadline=None)
@given(graph_and_bounds(max_n=4, max_c=3))
def test_level_iff_degree_one(gc):
    G, c = gc
    P = pl.facets(pl.enumerate_bases(G, c))
    if pl.count_lattice_points(P, 1, "interior") == 0:
        assert pl.level_star(P)[0] is False
        return
    assert pl.level_star(P)[0] == (pl.int_star_degree(P) == 1)


@settings(max_examples=60, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_interior_count_agrees_with_the_all_ones_test(gc):
    """The report reads "P has an interior point" off its interior count;
    the all-ones test `_interior_at(P, 1)` gives the same answer, as the
    interior points are closed downwards within x >= 1."""
    P = pl.facets(pl.enumerate_bases(*gc))
    interior1 = pl.count_lattice_points(P, 1, "interior")
    assert (interior1 > 0) == _interior_at(P, 1)


@settings(max_examples=25, deadline=None)
@given(st.one_of(
    graph_and_bounds(max_n=4, max_c=3).map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
    facet_systems(max_n=4, max_t=3, laminar=True),
))
# nested aggregates with interior points, which the draws above never give:
# level*, then failing
@example(pl.HPolytope(4, (((1, 3), 5), ((1, 2, 3), 4), ((1,), 2), ((3,), 4), ((4,), 3))))
@example(pl.HPolytope(4, (((1,), 3), ((2,), 3), ((4,), 3), ((1, 3, 4), 4), ((1, 4), 4))))
@example(pl.HPolytope(3, (((2,), 4), ((1, 2, 3), 5), ((1, 3), 5))))
def test_level_agrees_with_flat_oracle(P):
    """Verdict and witness against flat scans, on graph hulls and on
    laminar systems, whose aggregates nest: the witness is the lex-first
    interior point of degree >= 2 at the first level that has one."""
    level, witness = pl.level_star(P)
    assert level == brute_level_star(P)
    if not brute_interior_points(P, 1):
        assert witness is None
        return
    first = next(((N, a) for N in range(2, max(2, P.n - 1) + 1)
                  for a in brute_interior_points(P, N)
                  if brute_reduced_degree(P, a, N) >= 2), None)
    assert witness == first


@settings(max_examples=25, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_reduced_degree_bounded(gc):
    """Degree <= min(N, n-1), per point and for the int* degree; needs an
    interior point of the base polytope."""
    G, c = gc
    P = pl.facets(pl.enumerate_bases(G, c))
    if pl.count_lattice_points(P, 1, "interior") == 0:
        return
    for N in (1, 2, 3):
        for a in pl.lattice_points(P, N, "interior")[:30]:
            r = pl.reduced_degree(P, a, N)
            assert 1 <= r <= min(N, max(1, P.n - 1))
    assert pl.int_star_degree(P) <= max(1, P.n - 1)


def _lifted(P):
    """P with each bound raised by its facet's size, so that the all-ones
    point is interior; pass it through `admissible` if its aggregates
    cross."""
    return system(P.n, ((A, t + len(A)) for A, t in P.upper_facets))


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    crossing_systems(max_n=4, max_t=2).map(_lifted).filter(admissible),
    graph_and_bounds(max_n=4, max_c=3).map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
    facet_systems(max_n=4, laminar=True),
))
def test_splits_are_monotone_in_degree(P):
    """An interior point of N*P that splits at r also splits at r+1.

    For a laminar system this is a theorem: the system is totally
    unimodular (Schrijver, Theory of Linear and Integer Programming, 1986),
    hence has the integer decomposition property (Baum-Trotter 1978), so
    the summand a' of (N-r)*P contains a lattice point p of P, and
    a = (a0 + p) + (a' - p) splits at r+1.  A graph hull, and a drawn
    system whose aggregates cross, is an integral polymatroid, which has
    the property too (Herzog-Hibi 2002).  The per-level degree test relies
    on it.  Checked with the direct search, level by level up to 3.
    """
    st_ = _structure(P)
    for N in (2, 3):
        for a in pl.lattice_points(P, N, "interior"):
            feasible = [_split_exists_dfs(st_, a, N, r, 1) for r in range(1, N + 1)]
            assert feasible == sorted(feasible), (N, a)


@pytest.mark.parametrize("edges, c", CROSSING_GRAPHS)
def test_crossing_graph_hulls_split_monotonically(edges, c):
    """A crossing graph hull is a `Polymatroid`, so for every interior point
    of N*P the degrees r at which it splits form an up-set, which the
    block-by-block degree test relies on; checked with the direct search
    at levels 2..3 (level 2 alone where P has interior points).  The
    per-level test matches a walk of every point there, and
    `normality_check` answers by theorem what the scan confirms."""
    P = pl.facets(pl.enumerate_bases(pl.graph(6, edges), c))
    st_ = _structure(P)
    assert isinstance(P, Polymatroid) and not st_.laminar
    interior = pl.count_lattice_points(P, 1, "interior") > 0
    levels = (2,) if interior else (2, 3)
    for N in levels:
        for a in pl.lattice_points(P, N, "interior"):
            feasible = [_split_exists_dfs(st_, a, N, r, 1) for r in range(1, N + 1)]
            assert feasible == sorted(feasible), (N, a)
    degrees = {N for N in levels if _is_degree(P, N, 10**8)}
    walked = {N for N in levels for a in pl.lattice_points(P, N, "interior")
              if pl.reduced_degree(P, a, N) == N}
    assert degrees == walked == (set() if interior else {2})
    assert pl.normality_check(P, 2) == _normality_scan(P, 2) == (True, None)


def _check_witness(P, levels=(2, 3)):
    """P has an interior point: at each level N, `_witness` is the first
    point of a flat walk of N*P that the direct search cannot split at
    r = 1, or None.  Where every block is one aggregate or a lone
    coordinate, it is found without enumerating a point."""
    st = _structure(P)
    for N in levels:
        naive = next((a for a in iter_lattice_points(P, N, "interior")
                      if not _split_exists_dfs(st, a, N, 1, 1)), None)
        with pytest.MonkeyPatch.context() as m:
            if aggregates_disjoint(P):
                m.setattr(levelness, "iter_lattice_points", _no_points)
            assert _witness(P, N, 10**8) == naive, N


def _no_points(*args, **kwargs):
    raise AssertionError("interior points enumerated")


def test_witness_on_two_disjoint_aggregates():
    """Double star: two leaf-pair aggregates, descent vs naive enumeration."""
    G = pl.graph(6, [(1, 2), (1, 5), (1, 6), (2, 3), (2, 4)])
    P = pl.facets(pl.enumerate_bases(G, (3, 3, 2, 2, 2, 2)))
    st = _structure(P)
    assert [A for A, _ in st.aggs] == [(3, 4), (5, 6)] and aggregates_disjoint(P)
    assert pl.count_lattice_points(P, 1, "interior") > 0
    _check_witness(P)


def _graph_hull(gc):
    return pl.facets(pl.enumerate_bases(*gc))


# a laminar graph hull with nested aggregates and interior points, not level*
_FAILING_NESTED = ([(1, 6), (2, 3), (2, 4), (2, 6), (3, 4), (3, 6), (5, 6)], (3, 2, 2, 3, 3, 3))


def _with_interior(P):
    return _interior_at(P, 1)


@st.composite
def interleaved_pairs(draw):
    """The product of two lifted hand-built systems of dimension 2-3,
    crossing polymatroids included, with their coordinates shuffled
    together."""
    return _shuffled_product(draw, [draw(_LIFTED_SMALL), draw(_LIFTED_SMALL)])


_LIFTED_SMALL = facet_systems(max_n=3, max_t=2).map(_lifted).filter(admissible)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    graph_and_bounds(max_n=5, max_c=3).map(_graph_hull).filter(_with_interior),
    facet_systems(max_n=5, max_t=2, laminar=True).map(_lifted),
    facet_systems(max_n=4, max_t=3).map(_lifted).filter(admissible),
    interleaved_pairs(),
))
@example(pl.HPolytope(3, (((1, 2, 3), 4), ((1,), 3), ((2,), 3), ((3,), 2))))
@example(pl.HPolytope(3, (((1, 2, 3), 4), ((1,), 2), ((3,), 3))))   # x2 uncapped
# one aggregate meeting both conditions at N = 2: the bottom's part,
# (1, 1, 13, 1, 1), is less than the top's, (5, 3, 1, 7, 3)
@example(pl.HPolytope(5, (((1,), 3), ((2,), 2), ((3,), 7), ((4,), 4), ((5,), 2),
                          ((1, 2, 3, 4, 5), 10))))
# a crossing graph hull, level* at levels 2 and 3
@example(_graph_hull((pl.graph(6, [(1, 2), (1, 4), (2, 3), (3, 6), (4, 6), (5, 6)]),
                      (2, 2, 3, 3, 2, 2))))
def test_witness_matches_naive(P):
    """The witness, the least over the blocks of each failing block's
    lex-least part, is the lex-least failing point of a flat walk, or
    None: on graph hulls, on hand-built systems, laminar ones and crossing
    polymatroids, and on products of two such systems whose blocks
    interleave; where every block is one aggregate, the descent prunes
    exactly, so it never backtracks.  A flat walk of all of 3P takes up
    to a second at n = 6, so there only level 2 is checked."""
    _check_witness(P, (2, 3) if P.n <= 5 else (2,))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(crossing_systems(max_n=4, max_t=2).map(_lifted).filter(admissible))
def test_witness_matches_naive_on_crossing_polymatroids(P):
    """Lifted polymatroids whose aggregates cross, drawn on their own so
    that every example walks a crossing block by the DFS split test: the
    witness against the flat walk at levels 2 and 3."""
    assert crosses(P.upper_facets) and isinstance(P, Polymatroid)
    _check_witness(P)


@pytest.mark.parametrize("P", [
    # both aggregates can fail, and they interleave; the witness keeps x3 = 1
    pl.HPolytope(6, (((1, 2, 4), 4), ((3, 5, 6), 4), ((1,), 4), ((2,), 2), ((3,), 3),
                     ((4,), 3), ((5,), 4), ((6,), 4))),
    # both blocks fail, they interleave, and the later, crossing one, a
    # polymatroid, gives the witness
    Polymatroid(6, (((1,), 3), ((3,), 4), ((5,), 4), ((1, 3, 5), 4), ((4,), 4), ((6,), 2),
                    ((2, 6), 4), ((2, 4, 6), 5), ((4, 6), 5))),
    _graph_hull((pl.graph(6, _FAILING_NESTED[0]), _FAILING_NESTED[1])),   # nested
], ids=["interleaved-aggregates", "interleaved-crossing", "nested-graph-hull"])
def test_witness_matches_naive_at_n6(P):
    """Hulls with n = 6 whose walks of 3P stop early, at levels 2 and 3;
    a crossing block is an integral polymatroid."""
    for block in _structure(P).blocks:
        Q = _restrict(P, block)
        assert not crosses(Q.upper_facets) or is_integral_polymatroid(Q)
    _check_witness(P)


def test_witness_from_the_later_block():
    """Both blocks fail, at levels 2 and 3; the later block gives the
    witness, so taking the first failing block would be wrong."""
    P = pl.HPolytope(6, (((1,), 4), ((2,), 2), ((3,), 3), ((4,), 3), ((5,), 4), ((6,), 4),
                         ((1, 2, 3), 4), ((4, 5, 6), 4)))
    assert _witness(_restrict(P, (1, 2, 3)), 2, 10**8) is not None
    assert [_witness(P, N, 10**8) for N in (2, 3)] == [(1, 1, 1, 5, 1, 1), (1, 1, 1, 8, 1, 1)]
    _check_witness(P)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    crossing_systems(max_n=4, max_t=3),
    graph_and_bounds(max_n=5, max_c=3).map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
    facet_systems(max_n=4, max_t=3),
), st.sampled_from((0, 1)))
def test_split_paths_agree(P, slack):
    """Closed-form split feasibility matches the generic search, for an
    interior summand (slack 1, the level* scans) and for any lattice point
    as summand (slack 0, normality), on graph hulls and on hand-built
    systems, whose aggregates nest more often."""
    st = _structure(P)
    region = "interior" if slack else "full"
    for N in (2, 3):
        for a in pl.lattice_points(P, N, region)[:15]:
            for r in range(1, N + 1):
                dfs = _split_exists_dfs(st, a, N, r, slack)
                if st.laminar:
                    assert _split_feasible_laminar(st, a, N, r, slack) == dfs
                assert _split_exists(st, a, N, r, slack) == dfs


def _nested_hull(edges, c):
    P = pl.facets(pl.enumerate_bases(pl.graph(6, edges), c))
    assert _structure(P).laminar and not aggregates_disjoint(P)
    assert pl.count_lattice_points(P, 1, "interior") > 0
    return P


@pytest.mark.parametrize("call", [
    pl.analyze_polytope, pl.level_star, pl.int_star_degree, pl.conjecture_spectrum,
], ids=lambda f: f.__name__)
@pytest.mark.parametrize("budget", [0, -1, 1.5, "x"])
def test_budget_must_be_a_positive_integer(call, budget):
    """On the hull of path(4) with c = 2, budget -1 raised
    BudgetExceededError and 1.5 failed later as a budget error."""
    P = pl.facets(pl.enumerate_bases(pl.path(4), (2, 2, 2, 2)))
    with pytest.raises(ValueError, match="budget"):
        call(P, budget=budget)


def test_level_scan_budget(k34_hull):
    """The witness of a hull with nested aggregates walks only its
    five-member block, 238 nodes, and counts them against `budget` (a
    walk of the whole hull needed over 1000).  The report's rank tests
    visit at most the 31 subsets of that block, so the walk sets the
    report's need: at budget 237 it raises there, and at 238 it answers.
    The descent on a disjoint hull visits no node."""
    nested = _nested_hull(*_FAILING_NESTED)
    with pytest.raises(BudgetExceededError, match="enumeration exceeded 237 nodes") as err:
        _witness(nested, 2, 237)
    assert err.value.cap == "budget" and err.value.limit == 237
    assert _witness(nested, 2, 238) == (1, 3, 3, 5, 4, 1)
    with pytest.raises(BudgetExceededError, match="enumeration exceeded 237 nodes") as err:
        pl.level_star(nested, budget=237)
    assert err.value.cap == "budget" and err.value.limit == 237
    assert pl.level_star(nested, budget=238) == (False, (2, (1, 3, 3, 5, 4, 1)))
    assert pl.level_star(k34_hull, budget=5) == (False, (2, (1, 1, 1, 2, 3, 3, 3)))


def test_nested_level_decided_before_its_points(monkeypatch):
    """A laminar hull with nested aggregates and interior points: a level
    whose rank test finds no degree >= 2 walks no point (walking them
    took tens of seconds on this hull), and a failing level keeps its
    lex-least witness."""
    level_star_hull = _nested_hull(
        [(1, 3), (1, 6), (2, 4), (2, 6), (3, 4), (3, 6), (4, 5), (5, 6)], (2, 3, 3, 2, 3, 3))
    failing_hull = _nested_hull(*_FAILING_NESTED)
    with monkeypatch.context() as m:
        m.setattr(levelness, "iter_lattice_points", _no_points)
        assert pl.level_star(level_star_hull) == (True, None)
    assert pl.level_star(failing_hull) == (False, (2, (1, 3, 3, 5, 4, 1)))


def test_analyze_walks_only_the_witness_level(monkeypatch, k34_hull):
    """The report reads level* and the witness level off its degree set:
    it never calls `level_star`, and it asks `_witness` at one level, the
    witness's; on a disjoint hull and on a nested one."""
    def no_level_star(*args, **kwargs):
        raise AssertionError("level_star called")

    walked = []
    descend = levelness._witness
    monkeypatch.setattr(levelness, "level_star", no_level_star)
    monkeypatch.setattr(levelness, "_witness",
                        lambda P, N, budget: walked.append(N) or descend(P, N, budget))
    for P, witness in ((k34_hull, (2, (1, 1, 1, 2, 3, 3, 3))),
                       (_nested_hull(*_FAILING_NESTED), (2, (1, 3, 3, 5, 4, 1)))):
        walked.clear()
        rep = pl.analyze_polytope(P)
        assert rep.failure_witness[:2] == witness
        assert walked == [rep.failure_witness[0]]


def test_analyze_report(k34_hull):
    """K(3,4) with c = 2: level 2 holds a degree and level 3 none, so the
    scan stops at level 3; the table's length at levels 2..3 is counted,
    never listed; at level 2 it is checked against the flat oracle."""
    rep = pl.analyze_polytope(k34_hull)
    assert rep.pseudo_gorenstein and not rep.level
    assert rep.reflexive_up_to_translation is False
    assert rep.interior_count_1 == 1
    assert rep.failure_witness[0] == 2
    assert rep.int_star_degree == 2
    assert rep.scan_bound == 3
    assert len(rep.reduced_degree_table) == 2608
    _check_table(k34_hull, 2)


def test_analyze_report_empty_interior():
    square = pl.HPolytope(2, (((1,), 1), ((2,), 1)))
    rep = pl.analyze_polytope(square)
    assert rep.interior_count_1 == 0
    assert not rep.level and not rep.pseudo_gorenstein
    assert rep.int_star_degree == 2         # (1, 1) at level 2
    assert rep.scan_bound == 3              # 3*P is (1, 1) plus the square
    assert rep.conjecture_spectrum_holds is True
    assert rep.failure_witness is None
    assert pl.level_star(square) == (False, None)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    crossing_systems(max_n=4),
    graph_and_bounds(max_n=4, max_c=3).map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
    facet_systems(max_n=4),
    facet_systems(max_n=2),
))
# n = 2: with an interior point, and without one (level 2 holds degree 2)
@example(pl.HPolytope(2, (((1,), 3), ((2,), 2), ((1, 2), 4))))
@example(pl.HPolytope(2, (((1,), 1), ((2,), 1))))
def test_report_matches_the_verdict_functions(P):
    """The report's verdicts, read off one degree set, and `level_star`,
    which reads the report, against the flat oracles: level* against
    `brute_level_star`, the witness against the lex-first point of degree
    >= 2 at the first level that has one, the int* degree against the
    largest reduced degree over levels 2..n + 2, past the n + 1 that the
    canonical module allows, or 1 when P has an interior point.  The
    gap rule's verdict agrees with the report's count, and the scan stops
    one level above the int* degree."""
    rep = pl.analyze_polytope(P)
    assert rep.pseudo_gorenstein == (rep.interior_count_1 == 1)
    assert rep.scan_bound == rep.int_star_degree + 1
    flat = _flat_degrees(P, P.n + 2)
    interior = bool(brute_interior_points(P, 1))
    first = next((key for key, r in flat.items() if r >= 2), None)
    level = brute_level_star(P)
    assert level == (interior and first is None)
    assert pl.level_star(P) == (level, first if interior else None)
    degrees = set(flat.values())
    d = max(degrees, default=1)
    want = d, all(i in degrees for i in range(2, d))
    assert (rep.int_star_degree, rep.conjecture_spectrum_holds) == want
    assert (pl.int_star_degree(P), pl.conjecture_spectrum(P)) == want


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    crossing_systems(max_n=4),
    graph_and_bounds(max_n=4, max_c=3).map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
    facet_systems(max_n=4),
))
@example(pl.HPolytope(2, (((1,), 1), ((2,), 1))))    # empty interior
# one interior point, and points of degree 2: one aggregate, then a
# crossing polymatroid
@example(pl.HPolytope(3, (((1,), 3), ((2,), 2), ((3,), 2), ((1, 2, 3), 4))))
@example(Polymatroid(3, (((1,), 2), ((3,), 3), ((1, 2), 3), ((1, 3), 4), ((1, 2, 3), 4))))
def test_degree_table_matches_flat_oracle(P):
    """The report's table length and `reduced_degree` against the flat
    per-point oracle at levels 2..3: graph hulls and hand-built systems,
    crossing polymatroids included, with empty and nonempty interiors."""
    _check_table(P, 3)


def test_report_holds_no_points(k34_hull):
    """The table is a view: a report of 2,608 points of degree 2, its
    length counted, keeps almost nothing allocated (a dict of those points
    holds over 150 kB)."""
    len(pl.analyze_polytope(k34_hull).reduced_degree_table)  # fill the caches first
    levelness._report.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = pl.analyze_polytope(k34_hull)
        assert len(rep.reduced_degree_table) == 2608
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 32_000


# --- the degree test against the flat oracle ---------------------------------

def _shuffled_product(draw, blocks):
    """The product of the polytopes `blocks`, with the coordinates of all
    blocks shuffled together.  A product whose aggregates cross is kept
    only when each block is an integral polymatroid, so that their direct
    sum is one."""
    n = sum(Q.n for Q in blocks)
    perm = draw(st.permutations(range(1, n + 1)))
    upper, offset = [], 0
    for Q in draw(st.permutations(blocks)):
        for A, t in Q.upper_facets:
            upper.append((tuple(sorted(perm[offset + i - 1] for i in A)), t))
        offset += Q.n
    assume(not crosses(upper) or all(map(is_integral_polymatroid, blocks)))
    return system(n, upper)


@st.composite
def block_products(draw):
    """Two small blocks.

    One block holds two twins (one singleton bound, one aggregate over
    them), optionally with a third member under a second aggregate over
    all three; the other is a polymatroid on three coordinates whose
    aggregates cross.
    """
    u = draw(st.integers(1, 2))
    twins = [((1,), u), ((2,), u), ((1, 2), draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        twins += [((3,), draw(st.integers(1, 3))), ((1, 2, 3), draw(st.integers(1, 5)))]
    return _shuffled_product(draw, [pl.HPolytope(2 + (len(twins) > 3), twins),
                                    draw(_CROSSING_TRIPLES)])


_CROSSING_TRIPLES = crossing_systems(max_n=3, max_t=3)


@st.composite
def interior_products(draw):
    """A twin block with a third member, whose points reach degree 2, times
    a capped coordinate, whose points all have degree 1; the interior is
    nonempty."""
    u = draw(st.integers(2, 3))
    twins = [((1,), u), ((2,), u), ((1, 2), draw(st.integers(4, 5))),
             ((3,), draw(st.integers(2, 3))), ((1, 2, 3), draw(st.integers(4, 5)))]
    box = [((1,), draw(st.integers(2, 3)))]
    return _shuffled_product(draw, [pl.HPolytope(3, twins), pl.HPolytope(1, box)])


def _plain_blocks(P):
    """Connected components of the aggregate supports by repeated merging,
    least member first."""
    parts = [{i} for i in range(1, P.n + 1)]
    for A, _t in P.upper_facets:
        touched = [p for p in parts if p & set(A)]
        parts = [p for p in parts if not p & set(A)] + [set().union(*touched)]
    return tuple(sorted(tuple(sorted(p)) for p in parts))


def _flat_degrees(P, top):
    """{(N, a): r} over the interior points a of N*P, N in 2..top, in
    order, r the reduced degree by the flat per-point oracle."""
    return {(N, a): brute_reduced_degree(P, a, N)
            for N in range(2, top + 1) for a in brute_interior_points(P, N)}


def _check_table(P, top):
    """The report's kind of table at levels 2..top against the flat oracle:
    its length is the oracle's count of points of degree >= 2, and
    `reduced_degree` agrees with the oracle at every point it lists."""
    flat = _flat_degrees(P, top)
    table = levelness._DegreeTable(P, range(2, top + 1), 10**8)
    assert len(table) == sum(r >= 2 for r in flat.values())
    for (N, a), r in flat.items():
        assert pl.reduced_degree(P, a, N) == r, (N, a)
    return flat


def _check_degrees(P, top=3):
    """The per-level degree test and the report's table against the flat
    oracle, at levels 2..top."""
    flat = _check_table(P, top)
    degrees = {r for r in flat.values() if r >= 2}
    assert {N for N in range(2, top + 1) if _is_degree(P, N, 10**8)} == degrees


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(block_products())
def test_degree_test_matches_flat_oracle(P):
    """A laminar and a crossing block, the crossing one a polymatroid, so
    the test asks it block by block, each by its rank test."""
    assert _structure(P).blocks == _plain_blocks(P)
    assert len(_structure(P).blocks) >= 2
    assert not _structure(P).laminar
    _check_degrees(P)


@settings(max_examples=20, deadline=None)
@given(interior_products())
def test_degree_test_with_interior_matches_flat_oracle(P):
    """Nonempty interior, nested aggregates: decided block by block."""
    assert pl.count_lattice_points(P, 1, "interior") > 0
    _check_degrees(P)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(block_products())
def test_degree_test_single_block(P):
    """One block alone, laminar or crossing."""
    Q = _restrict(P, _structure(P).blocks[0])
    assert _structure(Q).blocks == _plain_blocks(Q) == (tuple(range(1, Q.n + 1)),)
    _check_degrees(Q)


# nested aggregates with an interior point, and without one
@example(pl.HPolytope(4, (((1,), 2), ((3,), 3), ((4,), 2), ((1, 2), 4), ((1, 2, 3, 4), 5))))
@example(pl.HPolytope(5, (((1, 2), 2), ((3, 4), 2), ((1, 2, 3, 4), 3), ((1, 2, 3, 4, 5), 4))))
@settings(max_examples=40, deadline=None)
@given(facet_systems(max_n=5, laminar=True))
def test_degree_test_of_laminar_systems(P):
    """The rank test of a laminar block, with nested aggregates, empty and
    nonempty interiors."""
    assert _structure(P).laminar
    _check_degrees(P)


@settings(max_examples=25, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_degree_test_of_graph_hulls(gc):
    """Graph hulls, which are `Polymatroid`s: decided block by block."""
    P = pl.facets(pl.enumerate_bases(*gc))
    assert isinstance(P, Polymatroid)
    _check_degrees(P)


def test_rank_test_budget():
    """The budget bounds the subsets that the rank test of one block
    visits, and never truncates the answer.  Six coordinates under two
    nested aggregates, level*: at level 2, which holds no degree, the rank
    test visits all 63 subsets, and every count needs fewer states."""
    P = pl.HPolytope(6, (((1,), 2), ((3,), 2), ((4,), 2), ((5,), 2), ((6,), 2), ((1, 2), 3),
                         ((1, 2, 3, 4, 5, 6), 7)))
    assert not aggregates_disjoint(P)
    for N in (1, 2):
        pl.count_lattice_points(P, N, "interior", budget=62)
    with pytest.raises(BudgetExceededError, match="rank test exceeded 62 subsets") as err:
        pl.analyze_polytope(P, budget=62)
    assert err.value.cap == "budget" and err.value.limit == 62
    assert pl.level_star(P, budget=63) == (True, None)


# --- degree set by one knapsack test per level ----------------------------

_items = st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 6), st.integers(0, 5))),
                  max_size=5)


@settings(max_examples=200, deadline=None)
@given(_items, st.integers(0, 8), st.integers(1, 20))
@example([(0, 0), None, (0, 3), (2, 0), (4, 2)], 5, 6)    # cost 0 and mx 0 items
def test_cost_rows_match_subsets(items, need, cap):
    """Each suffix row against the least cost over every subset of the
    capped items from that row on, both read up to `cap`."""
    rows = _cost_rows(items, need, cap)
    assert len(rows) == len(items) + 1
    for j in range(len(items) + 1):
        capped = [item for item in items[j:] if item is not None]
        subsets = [S for k in range(len(capped) + 1)
                   for S in itertools.combinations(capped, k)]
        for c in range(need + 1):
            least = min((sum(cost for cost, _mx in S) for S in subsets
                         if sum(mx for _cost, mx in S) >= c), default=cap)
            assert min(rows[j][c], cap) == min(least, cap), (j, c)


def _blockwise_is_degree(P, N):
    """`_is_degree` by the rank test of every block, lone coordinates
    included, never by the knapsack."""
    if not _interior_at(P, N - 1):
        return _interior_at(P, N)
    st_ = _structure(P)
    return any(_rank_fails(st_, block, N, 10**8) for block in st_.blocks)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    facet_systems(max_n=5, max_t=4, laminar=True),
    graph_and_bounds(max_n=5, max_c=3).map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
))
def test_knapsack_degree_test_matches_blockwise(P):
    """With disjoint aggregates the degree set is read off one knapsack
    test per level; it must equal the rank test of every block at levels
    2..4, on hand-built systems with uncapped aggregate members and on
    graph hulls."""
    if not aggregates_disjoint(P):
        return
    for N in range(2, 5):
        assert _is_degree(P, N, 10**8) == _blockwise_is_degree(P, N), N


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    facet_systems(max_n=5, max_t=4, laminar=True),
    graph_and_bounds(max_n=5, max_c=3).map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
))
def test_knapsack_degree_test_matches_flat_oracle(P):
    """The knapsack's degree set against the flat per-point oracle at
    levels 2..3, with the table's length and `reduced_degree`."""
    if not aggregates_disjoint(P):
        return
    _check_degrees(P)


def test_degree_test_examples():
    """Against the flat per-point oracle at levels 2..4."""
    # u_1 = 1: P has no interior point, so at N = 2 the window of x_1 at
    # r = 1 is empty and every interior point of 2P has degree 2
    P = pl.HPolytope(2, (((1,), 1), ((2,), 3), ((1, 2), 3)))
    # x2 and x3 are uncapped aggregate members; one interior point
    Q = pl.HPolytope(3, (((1,), 3), ((1, 2, 3), 4)))
    assert pl.count_lattice_points(Q, 1, "interior") == 1
    # the simplex: 2S and 3S have no interior point, 4S has one, of degree 4
    S = pl.HPolytope(3, (((1, 2, 3), 1),))
    assert [pl.count_lattice_points(S, N, "interior") for N in (2, 3, 4)] == [0, 0, 1]
    for R, want in ((P, {2}), (Q, {2}), (S, {4})):
        assert {N for N in range(2, 5) if _is_degree(R, N, 10**8)} == want
        assert {r for r in _flat_degrees(R, 4).values() if r >= 2} == want


# --- the rank test against the walk and the flat oracle -------------------

def _walked_is_degree(P, N):
    """`_is_degree` by a walk of every block up to its first part with no
    split at N - 1: the point-by-point referee of the rank test."""
    if not _interior_at(P, N - 1):
        return _interior_at(P, N)
    for members in _structure(P).blocks:
        Q = _restrict(P, members)
        st_ = _structure(Q)
        if not all(_split_exists(st_, a, N, N - 1, 1)
                   for a in iter_lattice_points(Q, N, "interior")):
            return True
    return False


def _flat_is_degree(P, N):
    """Has some interior point of N*P reduced degree N, by the flat
    per-point oracle?"""
    return any(brute_reduced_degree(P, a, N) == N for a in brute_interior_points(P, N))


def _rank_tested(P):
    """Has P a block of two or more aggregates, which the rank test decides?"""
    st_ = _structure(P)
    return any(len({k for i in block for k in st_.agg_at[i - 1]}) > 1 for block in st_.blocks)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(crossing_systems(max_n=4, max_t=3),
       crossing_systems(max_n=4, max_t=2).map(_lifted).filter(admissible))
def test_rank_test_on_crossing_polymatroids(P, lifted):
    """Polymatroids whose aggregates cross, drawn on their own so that
    every example is one; their crossing block is decided by the rank
    test.  As drawn, P mostly has no interior point and is asked at the
    first three levels the scan can test, against the walk; `lifted` has
    one, so that level 2 can hold a degree, and is asked at levels 2..3,
    against the walk and the flat oracle."""
    for Q in (P, lifted):
        assert crosses(Q.upper_facets) and isinstance(Q, Polymatroid)
    start = max(2, _codegree(P))
    for N in range(start, start + 3):
        assert _is_degree(P, N, 10**8) == _walked_is_degree(P, N), N
    for N in (2, 3):
        assert (_is_degree(lifted, N, 10**8) == _walked_is_degree(lifted, N)
                == _flat_is_degree(lifted, N)), N


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(graph_and_bounds(max_n=7, max_c=3).map(_graph_hull).filter(_rank_tested))
def test_rank_test_on_graph_hulls(P):
    """Graph hulls with n <= 7 that have a block of nested or crossing
    aggregates: the degree test against the walk at the first two levels
    that the scan tests."""
    start = max(2, _codegree(P))
    for N in (start, start + 1):
        assert _is_degree(P, N, 10**8) == _walked_is_degree(P, N), N


def test_rank_test_reaches_inside_a_facet_support():
    """At level 2 the only X with R_2(X) > R_1(X) + f(X) is {1, 4, 6, 7},
    strictly inside the aggregate's support (by flat scans of the block):
    a rank test that looked at the facet supports alone would miss the
    degree.
    The block is one aggregate, so `_is_degree` asks the knapsack, and the
    rank test is called directly."""
    P = pl.HPolytope(8, (*(((i,), u) for i, u in enumerate((2, 3, 4, 4, 3, 4, 2, 4), 1)),
                         ((1, 2, 4, 6, 7), 11)))
    block = (1, 2, 4, 6, 7)
    assert block in _structure(P).blocks
    assert _rank_fails(_structure(P), block, 2, 10**8)
    assert _is_degree(P, 2, 10**8)
    assert _flat_is_degree(_restrict(P, block), 2)


@st.composite
def one_aggregate_blocks(draw):
    """One aggregate over 4-6 capped members, caps 2-4 and its bound
    between the largest cap and the cap sum, shaped like the block of
    `test_rank_test_reaches_inside_a_facet_support`: at levels 2 and 3
    the only X with R_N(X) > R_{N-1}(X) + f(X) often lies strictly inside
    the aggregate."""
    m = draw(st.integers(4, 6))
    u = draw(st.lists(st.integers(2, 4), min_size=m, max_size=m))
    t = draw(st.integers(max(*u, m + 1), sum(u)))
    return pl.HPolytope(m, (*(((i,), c) for i, c in enumerate(u, 1)), (tuple(range(1, m + 1)), t)))


@st.composite
def nested_blocks(draw):
    """An aggregate over 4-5 capped members, caps 2-3, with a second
    aggregate over two or more of them nested inside."""
    m = draw(st.integers(4, 5))
    u = draw(st.lists(st.integers(2, 3), min_size=m, max_size=m))
    inner = tuple(sorted(draw(st.sets(st.integers(1, m), min_size=2, max_size=m - 1))))
    return pl.HPolytope(m, (*(((i,), c) for i, c in enumerate(u, 1)),
                            (inner, draw(st.integers(len(inner) + 1, sum(u[i - 1] for i in inner)))),
                            (tuple(range(1, m + 1)), draw(st.integers(m + 1, sum(u))))))


@settings(max_examples=100, deadline=None)
@given(one_aggregate_blocks(), st.sampled_from((2, 3)))
def test_rank_test_matches_the_knapsack_inside_a_support(P, N):
    """The rank test of a one-aggregate block against its knapsack, which
    `_is_degree` asks, at levels where a rank test of the facet supports
    alone would often miss the degree."""
    (block,) = _structure(P).blocks
    assert _rank_fails(_structure(P), block, N, 10**8) == _is_degree(P, N, 10**8)


@settings(max_examples=40, deadline=None)
@given(nested_blocks())
def test_rank_test_of_nested_blocks_matches_the_walk(P):
    """The degree test of a nested block, its rank test, against the walk
    at levels 2 and 3."""
    for N in (2, 3):
        assert _is_degree(P, N, 10**8) == _walked_is_degree(P, N), N


def test_disjoint_report_counts_the_table_on_demand(monkeypatch, veronese_5333):
    """A disjoint hull's report walks no point: the knapsack decides its
    degrees and descends to its witness.  The table's length is counted
    level by level, at levels 2..4 (degrees 2 and 3, and level 4, where
    the scan stops), by a walk of the block's interior on the first
    `len()`, and kept; a budget below the largest walk's 8,761 nodes
    raises there."""
    assert aggregates_disjoint(veronese_5333)
    with monkeypatch.context() as m:
        m.setattr(levelness, "iter_lattice_points", _no_points)
        rep = pl.analyze_polytope(veronese_5333)
        small = pl.analyze_polytope(veronese_5333, budget=8760)
    assert (rep.int_star_degree, rep.level, rep.conjecture_spectrum_holds) == (3, False, True)
    assert rep.failure_witness[:2] == (2, (8, 1, 1, 1))
    walked = []
    walk = levelness.iter_lattice_points
    monkeypatch.setattr(levelness, "iter_lattice_points",
                        lambda Q, N, *args, **kw: walked.append(N) or walk(Q, N, *args, **kw))
    assert rep.reduced_degree_table == levelness._DegreeTable(veronese_5333, range(2, 5), 1)
    assert len(rep.reduced_degree_table) == len(rep.reduced_degree_table) == 20
    assert walked == [2, 3, 4]
    _check_table(veronese_5333, 4)
    with pytest.raises(BudgetExceededError, match="enumeration exceeded"):
        len(small.reduced_degree_table)
    assert len(pl.analyze_polytope(veronese_5333, budget=8761).reduced_degree_table) == 20


def test_twin_permutation_keeps_reduced_degree(veronese_5333):
    """Coordinates 2, 3, 4 share bound 3 and the aggregate: twins."""
    for N in (2, 3):
        for a in pl.lattice_points(veronese_5333, N, "interior"):
            r = pl.reduced_degree(veronese_5333, a, N)
            for perm in itertools.permutations(a[1:]):
                assert pl.reduced_degree(veronese_5333, (a[0],) + perm, N) == r


def test_table_length_of_empty_interior_hull():
    """Six vertices, c_i <= 3, empty interior: every interior point of
    every level has reduced degree >= 2, so the table's length is their
    count, at levels 2..3 (degree 2, and level 3, where the scan stops),
    counted without visiting a point.  At level 2, and at random interior
    points of levels 3..5, the flat oracle agrees."""
    G = pl.graph(6, [(1, 2), (1, 3), (2, 3), (2, 5), (2, 6), (3, 4), (3, 6)])
    P = pl.facets(pl.enumerate_bases(G, (1, 3, 3, 3, 3, 3)))
    rep = pl.analyze_polytope(P)
    assert rep.interior_count_1 == 0 and rep.int_star_degree == 2
    assert rep.scan_bound == 3
    total = sum(pl.count_lattice_points(P, N, "interior") for N in range(2, 4))
    assert len(rep.reduced_degree_table) == total == 49_738
    assert set(_check_table(P, 2).values()) == {2}
    rng = random.Random(0)
    hits = 0
    for _ in range(400):
        N = rng.randint(3, 5)
        a = tuple(rng.randint(1, 3 * N - 1) for _ in range(6))
        if pl.membership(P, a, N, "interior"):
            hits += 1
            assert pl.reduced_degree(P, a, N) == brute_reduced_degree(P, a, N) >= 2
    assert hits > 20


def test_structure_built_once_per_polytope():
    """One request builds the facet structure of the hull and of each
    distinct block polytope once.  Path P4 with c = (1, 1, 2, 1): empty
    interior and disjoint aggregates, so the report, the table's length (a
    sum of interior counts), the delta vector and the points need only the
    hull's structure.  A nested hull is tested block by block: its report
    builds the structures of the hull and of its one block with more than
    one member (a lone coordinate always splits), the table's length that
    of the lone block too, and nothing after it builds another.

    Structures are kept as long as the answers: a second request for a
    hull (bases, report, delta vector, interior points), after more
    distinct hulls than the 16 structures once kept, builds none.  Nor
    does a request for the hull of a relabelled graph whose hull has no
    witness and no interior point: its class answers the report and the
    delta vector, and the all-ones test the interior points."""
    P = pl.facets(pl.enumerate_bases(pl.path(4), (1, 1, 2, 1)))
    assert pl.count_lattice_points(P, 1, "interior") == 0
    assert aggregates_disjoint(P)
    nested = _nested_hull(*_FAILING_NESTED)
    blocks = _structure(nested).blocks
    assert blocks == ((1, 2, 3, 4, 5), (6,))
    for Q, report, structures in ((P, 1, 1), (nested, 2, 1 + len(blocks))):
        _structure.cache_clear()
        rep = pl.analyze_polytope(Q)
        assert _structure.cache_info().misses == report
        len(rep.reduced_degree_table)
        assert _structure.cache_info().misses == structures
        pl.delta_vector(Q)
        pl.lattice_points(Q, 1, "interior")
        assert _structure.cache_info().misses == structures

    def request(G, c):
        Q = pl.facets(pl.enumerate_bases(G, c))
        pl.analyze_polytope(Q)
        pl.delta_vector(Q)
        pl.lattice_points(Q, 1, "interior")
        return Q

    assert request(pl.path(4), (1, 1, 2, 1)) == P
    others = {request(pl.cycle(5), c) for c in itertools.product((1, 2), repeat=5)}
    assert len(others) > 16
    built = _structure.cache_info().misses
    request(pl.path(4), (1, 1, 2, 1))
    assert _structure.cache_info().misses == built
    copy = pl.facets(pl.enumerate_bases(*relabel_graph(pl.path(4), (1, 1, 2, 1), (4, 3, 2, 1))))
    assert copy.first is P and pl.analyze_polytope(P).failure_witness is None
    pl.analyze_polytope(copy)
    pl.delta_vector(copy)
    pl.lattice_points(copy, 1, "interior")
    assert _structure.cache_info().misses == built
