import inspect
import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import polylevel as pl
from polylevel.errors import BudgetExceededError
from polylevel.lattice import (_aggregate_block_count, _count_dp, _forest_block_count,
                               _interior_at, _normality_scan, _structure, iter_lattice_points)
from polylevel.oracle import (brute_count, brute_interior_points, brute_normality,
                              brute_reduced_degree, brute_volume)
from polylevel.polymatroid import Polymatroid

from conftest import (TRIANGLE, admissible, aggregates_disjoint, crossing_hull, crossing_systems,
                      facet_systems, graph_and_bounds, system, veronese_specs)


def test_membership_examples(k34_hull):
    assert not pl.membership(k34_hull, (2, 2, 2, 2, 2, 2, 1), 1, "full")
    assert pl.membership(k34_hull, (3, 3, 3, 3, 3, 3, 2), 2, "interior")
    assert pl.membership(k34_hull, (0,) * 7, 1, "full")
    assert pl.membership(k34_hull, (0,) * 7, 0, "full")
    with pytest.raises(ValueError, match=">= 0"):
        pl.membership(k34_hull, (0,) * 7, -1)


def test_interior_points_examples(k34_hull):
    assert pl.lattice_points(k34_hull, 1, "interior") == [(1,) * 7]
    Q = pl.veronese_polytope(pl.VeroneseSpec(n=4, a=6, c=(5, 3, 3, 3)))
    assert pl.lattice_points(Q, 1, "interior") == [
        (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1)]


def test_segment_enumeration():
    seg = pl.HPolytope(1, (((1,), 1),))
    assert pl.lattice_points(seg, 3, "full") == [(0,), (1,), (2,), (3,)]
    assert pl.lattice_points(seg, 3, "interior") == [(1,), (2,)]


def test_counts_match_enumeration(path3_hull, triangle_hull, cube4):
    for P in (path3_hull, triangle_hull, cube4):
        for N in range(1, 4):
            for region in ("full", "interior"):
                assert pl.count_lattice_points(P, N, region) == len(
                    pl.lattice_points(P, N, region))


def test_enumeration_at_level_zero(path3_hull):
    """N = 0 enumerates the origin alone, and no interior point, as
    counting and membership have it."""
    simplex = pl.HPolytope(3, (((1, 2, 3), 1),))
    for P in (path3_hull, simplex, crossing_hull(2)):
        assert pl.lattice_points(P, 0) == [(0,) * P.n]
        assert pl.lattice_points(P, 0, "interior") == []
        for region in ("full", "interior"):
            points = pl.lattice_points(P, 0, region)
            assert len(points) == pl.count_lattice_points(P, 0, region)
            assert all(pl.membership(P, x, 0, region) for x in points)
    with pytest.raises(ValueError, match=">= 0"):
        iter_lattice_points(simplex, -1)


@settings(max_examples=60, deadline=None)
@given(st.one_of(graph_and_bounds(max_n=4, max_c=3).map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
                 facet_systems(max_n=4, max_t=3)))
@example(pl.facets(pl.enumerate_bases(pl.path(3), (2, 3, 2))))   # interior points
@example(pl.facets(pl.enumerate_bases(pl.cycle(3), (1, 1, 1))))   # none
def test_interior_points_match_oracle(P):
    """The interior points of N*P, N = 0..3, against a flat scan; a dilate
    whose interior fails the all-ones test builds no facet structure."""
    for N in range(4):
        _structure.cache_clear()
        assert pl.lattice_points(P, N, "interior") == brute_interior_points(P, N)
        assert _structure.cache_info().misses == (1 if _interior_at(P, N) else 0)


def test_empty_interior_is_a_generator(triangle_hull):
    """An empty interior is still a generator, so a caller may close it."""
    assert pl.count_lattice_points(triangle_hull, 1, "interior") == 0
    _structure.cache_clear()
    points = iter_lattice_points(triangle_hull, 1, "interior")
    assert inspect.isgenerator(points) and list(points) == []
    points.close()
    assert _structure.cache_info().misses == 0


def test_count_conventions(cube4):
    assert pl.count_lattice_points(cube4, 0, "full") == 1
    assert pl.count_lattice_points(cube4, 0, "interior") == 0
    assert pl.count_lattice_points(cube4, 2, "full") == 625
    with pytest.raises(ValueError):
        pl.count_lattice_points(cube4, 1, "inner")


def test_count_against_flat_oracle(path3_hull, k34_hull):
    Q = pl.veronese_polytope(pl.VeroneseSpec(n=4, a=6, c=(5, 3, 3, 3)))
    for P in (path3_hull, k34_hull, Q):
        for N in (1, 2, 3):
            for interior in (False, True):
                assert pl.count_lattice_points(
                    P, N, "interior" if interior else "full"
                ) == brute_count(P, N, interior)


def test_enumeration_budget(cube4):
    with pytest.raises(BudgetExceededError) as exc:
        pl.lattice_points(cube4, 5, "full", budget=10)
    assert (exc.value.cap, exc.value.limit) == ("budget", 10)
    with pytest.raises(BudgetExceededError) as exc:
        pl.count_lattice_points(cube4, 5, "full", budget=3)
    assert (exc.value.cap, exc.value.limit) == ("budget", 3)


SQUARE = pl.HPolytope(2, (((1,), 2), ((2,), 2)))


@pytest.mark.parametrize("call", [
    lambda N: pl.count_lattice_points(SQUARE, N),
    lambda N: iter_lattice_points(SQUARE, N),
    lambda N: pl.lattice_points(SQUARE, N),
    lambda N: pl.membership(SQUARE, (1, 1), N),
], ids=["count_lattice_points", "iter_lattice_points", "lattice_points", "membership"])
def test_non_integer_dilation_is_rejected(call):
    with pytest.raises(ValueError, match="integer"):
        call(1.5)


@pytest.mark.parametrize("call", [
    lambda b: pl.count_lattice_points(SQUARE, 0, budget=b),
    lambda b: iter_lattice_points(SQUARE, 1, budget=b),
    lambda b: pl.lattice_points(SQUARE, 1, budget=b),
    lambda b: pl.delta_vector(SQUARE, budget=b),
    lambda b: pl.reflexive_up_to_translation(SQUARE, budget=b),
], ids=["count_lattice_points", "iter_lattice_points", "lattice_points", "delta_vector",
        "reflexive_up_to_translation"])
@pytest.mark.parametrize("budget", [0, -1, 1.5, "x"])
def test_budget_must_be_a_positive_integer(call, budget):
    """Checked at the call, before any work or memo: 0 and -1 no longer
    raise BudgetExceededError once the work starts, 1.5 is not taken."""
    with pytest.raises(ValueError, match="budget"):
        call(budget)


def test_non_integer_point_is_rejected(path3_hull):
    with pytest.raises(ValueError, match="integers"):
        pl.membership(path3_hull, (1.5, 2, 1), 1)


def _nested(P):
    return _structure(P).laminar and not aggregates_disjoint(P)


def _graph_hull(gc):
    return pl.facets(pl.enumerate_bases(*gc))


# the seed-1 `analyze` pool's nested hull, and an n = 6 nested hull with
# interior points
NESTED_POOL_HULL = pl.HPolytope(5, (((1,), 1), ((2,), 2), ((4,), 2), ((5,), 1),
                                    ((3, 5), 2), ((3, 4, 5), 3)))
NESTED_INTERIOR_GRAPH = (pl.graph(6, [(1, 3), (1, 6), (2, 4), (2, 6), (3, 4), (3, 6),
                                      (4, 5), (5, 6)]), (2, 3, 3, 2, 3, 3))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.one_of(
    facet_systems(max_n=5, max_t=3, max_aggs=4, laminar=True),
    graph_and_bounds(max_n=4, max_c=3).map(_graph_hull),
    graph_and_bounds(max_n=5, max_c=3).map(_graph_hull).filter(_nested),
    veronese_specs().map(pl.veronese_polytope),
), st.integers(0, 4), st.sampled_from(("full", "interior")))
@example(pl.HPolytope(3, (((1, 2), 1), ((3,), 1))), 2, "interior")         # R < 0
@example(pl.HPolytope(3, (((1, 2), 3), ((1,), 1), ((3,), 2))), 1, "interior")  # d_1 < 0
@example(pl.HPolytope(3, (((1, 2), 3), ((3,), 1))), 1, "interior")         # empty cap block
@example(pl.HPolytope(4, (((1, 2), 2), ((3, 4), 3), ((2,), 1))), 3, "interior")  # two aggregates
@example(NESTED_POOL_HULL, 3, "full")
@example(pl.HPolytope(5, (((1,), 3), ((2,), 2), ((3,), 1), ((4,), 2),
                          ((3, 5), 2), ((1, 3, 5), 4))), 4, "full")  # a graph hull
@example(pl.HPolytope(3, (((1, 2), 2), ((1, 2, 3), 3))), 2, "interior")   # uncapped, owned by the root
@example(pl.HPolytope(3, (((1, 2), 3), ((1, 2, 3), 2), ((1,), 1))), 2, "full")  # child above the root's room
@example(pl.HPolytope(3, (((1, 2), 1), ((1, 2, 3), 3))), 1, "interior")   # empty child, no interior point
@example(pl.HPolytope(4, (((1, 2), 2), ((3, 4), 2), ((1, 2, 3, 4), 3))), 2, "full")  # root owns nothing
def test_laminar_counts_match_dp_and_oracle(P, N, region):
    """On laminar facet systems (hand-built, nested included; graph hulls,
    nested ones filtered in; box-and-cutoff polytopes) the block count, the
    dynamic program and a flat scan agree, and on every childless root the
    forest pass agrees with the closed form."""
    st_ = _structure(P)
    assert st_.laminar
    assert pl.count_lattice_points(P, N, region) == _count_dp(P, N, region) \
        == brute_count(P, N, region == "interior")
    lo = 0 if region == "full" else 1
    for block in st_.blocks:
        ks = st_.agg_at[block[0] - 1]
        if ks and not st_.forest[ks[-1]]:
            assert _forest_block_count(st_, ks[-1], N, lo)[0] \
                == _aggregate_block_count(st_, *st_.aggs[ks[-1]], N, lo)[0]


@settings(max_examples=80, deadline=None)
@given(crossing_systems(max_n=4, max_t=3), st.integers(1, 3), st.sampled_from(("full", "interior")))
def test_crossing_polymatroids_match_oracles(P, N, region):
    """Crossing aggregates are counted by the dynamic program and split by
    the depth-first search: on crossing polymatroids the count of N*P, and
    the reduced degrees of the first interior points of (N+2)*P, which has
    some more often, agree with flat scans."""
    assert pl.count_lattice_points(P, N, region) == brute_count(P, N, region == "interior")
    for a in itertools.islice(iter_lattice_points(P, N + 2, "interior"), 8):
        assert pl.reduced_degree(P, a, N + 2) == brute_reduced_degree(P, a, N + 2)


def test_disjoint_counts_skip_the_dp(monkeypatch, cube4):
    def refuse(*args, **kwargs):
        raise AssertionError("dynamic program")
    monkeypatch.setattr("polylevel.lattice._count_dp", refuse)
    dv = pl.delta_vector(pl.veronese_polytope(pl.VeroneseSpec(n=8, a=20, c=(5,) * 8)))
    assert dv.delta[0] == 1 and len(dv.counts) == 9
    assert pl.count_lattice_points(cube4, 3) == 7 ** 4
    with pytest.raises(AssertionError, match="dynamic program"):
        pl.count_lattice_points(crossing_hull(), 2)
    box = pl.veronese_polytope(pl.VeroneseSpec(n=3, a=4, c=(2, 2, 2)))
    with pytest.raises(BudgetExceededError) as exc:
        pl.count_lattice_points(box, 2, budget=1)
    assert (exc.value.cap, exc.value.limit) == ("budget", 1)


def test_nested_counts_skip_the_dp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dynamic program")
    monkeypatch.setattr("polylevel.lattice._count_dp", refuse)
    nested = pl.HPolytope(3, (((1, 2), 1), ((1, 2, 3), 1)))
    assert [pl.count_lattice_points(nested, N) for N in range(4)] \
        == [brute_count(nested, N) for N in range(4)]
    assert pl.delta_vector(_graph_hull(NESTED_INTERIOR_GRAPH)).delta[6] == 16
    with pytest.raises(AssertionError, match="dynamic program"):
        pl.count_lattice_points(crossing_hull(), 2)
    # at N = 3 the forest pass builds two lists of 4 entries, one per aggregate
    assert pl.count_lattice_points(nested, 3, budget=8) == brute_count(nested, 3)
    with pytest.raises(BudgetExceededError) as exc:
        pl.count_lattice_points(nested, 3, budget=7)
    assert (exc.value.cap, exc.value.limit) == ("budget", 7)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(graph_and_bounds(max_n=6, max_c=3).map(_graph_hull).filter(_nested))
@example(_graph_hull(NESTED_INTERIOR_GRAPH))
def test_nested_graph_hull_counts_match_dp(P):
    """Graph hulls with nested aggregates, interior points included: the
    delta vector's counts and the interior counts agree with the dynamic
    program."""
    assert pl.delta_vector(P).counts == (1, *(_count_dp(P, N) for N in range(1, P.n + 1)))
    for N in range(1, P.n + 1):
        assert pl.count_lattice_points(P, N, "interior") == _count_dp(P, N, "interior")


def test_delta_vector_examples(cube4, path3_hull):
    assert pl.delta_vector(cube4).delta == (1, 76, 230, 76, 1)
    assert pl.delta_vector(pl.HPolytope(1, (((1,), 2),))).delta == (1, 1)
    sq = pl.HPolytope(2, (((1,), 1), ((2,), 1)))
    assert pl.delta_vector(sq).delta == (1, 1, 0)
    dv = pl.delta_vector(path3_hull)
    assert dv.counts[1] == 32
    assert dv.delta == (1, 28, 32, 2)


@settings(max_examples=25, deadline=None)
@given(graph_and_bounds(max_n=4, max_c=3))
def test_delta_vector_invariants(gc):
    G, c = gc
    P = pl.facets(pl.enumerate_bases(G, c))
    dv = pl.delta_vector(P)
    assert dv.delta[0] == 1
    assert dv.delta[1] == dv.counts[1] - (P.n + 1)
    assert dv.delta[P.n] == pl.count_lattice_points(P, 1, "interior")
    assert all(d >= 0 for d in dv.delta)
    assert dv.normalized_volume == brute_volume(P)


def test_unimodality():
    assert pl.is_unimodal((1, 76, 230, 76, 1))
    assert not pl.is_unimodal((1, 0, 1))
    assert pl.is_unimodal((1, 1, 0))
    assert pl.is_unimodal((1, 28, 32, 2))      # peak at the upper middle index
    assert not pl.is_unimodal((1, 5, 3, 4, 1))


def test_normality_examples(path3_hull, triangle_hull):
    assert pl.normality_check(path3_hull, 3) == (True, None)
    assert pl.normality_check(triangle_hull, 3) == (True, None)
    cube3 = pl.HPolytope(3, tuple(((i,), 2) for i in range(1, 4)))
    assert pl.normality_check(cube3, 2) == (True, None)
    Q = pl.veronese_polytope(pl.VeroneseSpec(n=4, a=6, c=(5, 3, 3, 3)))
    assert pl.normality_check(Q, 2) == (True, None)
    with pytest.raises(ValueError):
        pl.normality_check(cube3, 1)


def test_normality_level_must_be_an_integer(path3_hull):
    """A float `max_n` raises, even where the answer needs no scan (a
    laminar system; it returned (True, None))."""
    cube3 = pl.HPolytope(3, tuple(((i,), 2) for i in range(1, 4)))
    for P in (path3_hull, cube3):
        for bad in (2.5, 3.0):
            with pytest.raises(ValueError, match="max_n must be an integer"):
                pl.normality_check(P, bad)


def test_normality_detects_failure():
    """The enumerating scan, the referee of the theorem in acceptance check
    A14, finds a failure: TRIANGLE, {x1+x2 <= 1, x2+x3 <= 1, x1+x3 <= 1},
    holds only 0 and the unit vectors, yet (1,1,1) lies in the double
    dilate: not a sum of two points.  No polytope the package accepts is
    one, so it is built through the private type."""
    P = Polymatroid(*TRIANGLE)
    assert _normality_scan(P, 2) == brute_normality(P, 2) == (False, (2, (1, 1, 1)))


@pytest.mark.parametrize("P, max_n", [
    (Polymatroid(4, (((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((4,), 2))), 2),
    (Polymatroid(3, (((1, 2), 2), ((1, 3), 2), ((2, 3), 2), ((1, 2, 3), 3))), 3),
], ids=["triangle-and-a-cap", "triangle-under-a-simplex"])
def test_normality_scan_matches_oracle_off_the_contract(P, max_n):
    """More crossing systems that are no polymatroids, built through the
    private type: the scan agrees with explicit sumsets, verdict and
    witness."""
    assert not admissible(P)
    assert _normality_scan(P, max_n) == brute_normality(P, max_n)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    crossing_systems(max_n=4, max_t=2),
    graph_and_bounds(max_n=4, max_c=2).map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
    facet_systems(max_n=4, max_t=2),
), st.integers(2, 3))
@example(pl.HPolytope(3, (((1, 2), 1), ((1, 2, 3), 1))), 2)
def test_normality_matches_oracle(P, max_n):
    """The theorem, the enumerating scan and explicit sumsets agree,
    verdict and witness, on graph hulls and on hand-built systems with
    nested or crossing aggregates."""
    assert pl.normality_check(P, max_n) == _normality_scan(P, max_n) \
        == brute_normality(P, max_n)


BOX_AND_CUTOFF = [pl.veronese_polytope(pl.VeroneseSpec(n=n, a=a, c=c))
                  for n in (2, 3)
                  for c in itertools.combinations_with_replacement((3, 2), n)
                  for a in range(max(c[0] + 1, n + 1), sum(c))]


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    graph_and_bounds(max_n=4, max_c=2).map(lambda gc: pl.facets(pl.enumerate_bases(*gc)))
    .filter(lambda P: _structure(P).laminar),
    facet_systems(max_n=4, max_t=2, laminar=True),
    st.sampled_from(BOX_AND_CUTOFF),
), st.integers(2, 3))
@example(pl.HPolytope(3, (((1, 2), 1), ((1, 2, 3), 1))), 3)
def test_laminar_normality_matches_scan_and_oracle(P, max_n):
    """On laminar facet systems the theorem, the enumerating scan and
    explicit sumsets agree, verdict and witness: all say normal."""
    assert _structure(P).laminar
    assert pl.normality_check(P, max_n) == _normality_scan(P, max_n) \
        == brute_normality(P, max_n) == (True, None)


def test_laminar_normality_enumerates_nothing(monkeypatch):
    """Nor does a crossing graph hull, a `Polymatroid`."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")
    monkeypatch.setattr("polylevel.lattice.iter_lattice_points", refuse)
    box = pl.veronese_polytope(pl.VeroneseSpec(n=5, a=12, c=(5, 5, 5, 5, 5)))
    nested = pl.HPolytope(3, (((1, 2), 1), ((1, 2, 3), 1)))
    for P in (box, nested, crossing_hull()):
        assert pl.normality_check(P, 4) == (True, None)
    cube3 = pl.HPolytope(3, tuple(((i,), 2) for i in range(1, 4)))
    with pytest.raises(ValueError):
        pl.normality_check(cube3, 1)


def test_reflexive_examples(k34_hull):
    assert pl.reflexive_up_to_translation(k34_hull) is False
    Q = pl.veronese_polytope(pl.VeroneseSpec(n=3, a=4, c=(2, 2, 2)))
    assert pl.reflexive_up_to_translation(Q) is True
    for n in (2, 3, 4):
        cube = pl.HPolytope(n, tuple(((i,), 2) for i in range(1, n + 1)))
        assert pl.reflexive_up_to_translation(cube) is True
    with pytest.raises(ValueError, match="pseudo-Gorenstein"):
        pl.reflexive_up_to_translation(pl.HPolytope(1, (((1,), 4),)))


@settings(max_examples=30, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_reflexive_iff_level_for_pg(gc):
    """On one-interior-point hulls, levelness and reflexivity coincide."""
    G, c = gc
    P = pl.facets(pl.enumerate_bases(G, c))
    if pl.count_lattice_points(P, 1, "interior") != 1:
        return
    assert pl.reflexive_up_to_translation(P) == pl.level_star(P)[0]


def _lift(P):
    """P with every bound t raised to |A| + t: the all-ones point is then
    interior, at slack t from (A, t)."""
    return system(P.n, ((A, len(A) + t) for A, t in P.upper_facets))


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    crossing_systems(max_n=4, max_t=4),
    facet_systems(max_n=4, max_t=4),
    facet_systems(max_n=4, max_t=2).map(_lift).filter(admissible),
    graph_and_bounds(max_n=5, max_c=3).map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
))
@example(Polymatroid(3, (((1,), 2), ((1, 2), 3), ((1, 3), 3), ((1, 2, 3), 4))))
@example(Polymatroid(3, (((1,), 2), ((3,), 2), ((1, 2), 3), ((1, 3), 4))))
def test_reflexive_matches_distance_check(P):
    """Where P has exactly one interior point, the answer read off the
    all-ones point equals the distance check on the point a flat scan
    finds; elsewhere the test refuses.  Crossing polymatroids included,
    and lifted systems, which often have one interior point; the examples
    pin a crossing polymatroid with one interior point, reflexive and
    not."""
    inner = brute_interior_points(P, 1)
    if len(inner) != 1:
        with pytest.raises(ValueError, match="pseudo-Gorenstein"):
            pl.reflexive_up_to_translation(P)
        return
    (p,) = inner
    expected = all(t - sum(p[i - 1] for i in A) == 1 for A, t in P.upper_facets)
    assert pl.reflexive_up_to_translation(P) == expected
