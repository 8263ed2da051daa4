from fractions import Fraction

import pytest
from hypothesis import given, settings

import polylevel as pl
from polylevel.errors import BudgetExceededError
from polylevel.oracle import (
    VERTEX_GUARD,
    brute_bases,
    brute_count,
    brute_interior_points,
    brute_level_star,
    brute_reduced_degree,
    brute_volume,
)

from conftest import graph_and_bounds


def test_brute_bases_examples():
    d, bases = brute_bases(pl.cycle(3), (1, 1, 1))
    assert d == 1 and bases == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    d, bases = brute_bases(pl.path(3), (2, 3, 2))
    assert d == 3 and bases == [(1, 3, 2), (2, 3, 1)]
    d, bases = brute_bases(pl.path(2), (1, 1))
    assert d == 1 and bases == [(1, 1)]


def test_brute_bases_guard():
    with pytest.raises(BudgetExceededError) as exc:
        brute_bases(pl.path(2), (10**4, 10**4))
    assert (exc.value.cap, exc.value.limit) == ("VERTEX_GUARD", VERTEX_GUARD)


@settings(max_examples=50, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_brute_matches_pipeline(gc):
    G, c = gc
    d, bases = brute_bases(G, c)
    B = pl.enumerate_bases(G, c)
    assert d == B.delta_c
    assert tuple(bases) == B.bases


def test_brute_volume_examples(cube4, path3_hull):
    assert brute_volume(cube4) == 384
    assert brute_volume(pl.HPolytope(1, (((1,), 2),))) == 2
    assert brute_volume(path3_hull) == 63
    tri = pl.HPolytope(2, (((1, 2), 1),))
    assert brute_volume(tri) == 1          # 2! * 1/2
    assert brute_volume(pl.HPolytope(2, (((1,), 1), ((2,), 2), ((1, 2), 2)))) == Fraction(3)


def test_brute_volume_dimension_cap():
    P = pl.HPolytope(5, tuple(((i,), 1) for i in range(1, 6)))
    with pytest.raises(ValueError, match="dimension"):
        brute_volume(P)


def test_brute_volume_matches_delta_sum(path3_hull, triangle_hull, cube4):
    for P in (path3_hull, triangle_hull, cube4):
        assert pl.delta_vector(P).normalized_volume == brute_volume(P)


def test_brute_level_examples(path3_hull, k34_hull):
    assert brute_level_star(path3_hull) is True
    assert brute_level_star(k34_hull) is False
    Q = pl.veronese_polytope(pl.VeroneseSpec(n=3, a=4, c=(2, 2, 2)))
    assert brute_level_star(Q) is True


def test_brute_interior_and_count(k34_hull):
    assert brute_interior_points(k34_hull) == [(1,) * 7]
    assert brute_count(k34_hull, 0) == 1
    assert brute_count(k34_hull, 0, interior=True) == 0
    assert brute_count(k34_hull, 1) == pl.count_lattice_points(k34_hull, 1)


def test_brute_reduced_degree_examples():
    Q = pl.veronese_polytope(pl.VeroneseSpec(n=4, a=6, c=(5, 3, 3, 3)))
    assert brute_reduced_degree(Q, (8, 1, 1, 1), 2) == 2
    assert brute_reduced_degree(Q, (14, 1, 1, 1), 3) == 3
    assert brute_reduced_degree(Q, (2, 1, 1, 1), 2) == 1
    with pytest.raises(ValueError, match="interior"):
        brute_reduced_degree(Q, (9, 1, 1, 1), 2)   # on the boundary sum
    # degrees at which the all-ones point is not interior are skipped
    S = pl.HPolytope(3, (((1, 2, 3), 1),))         # interior first at 4S
    assert brute_reduced_degree(S, (1, 1, 1), 4) == 4
    assert brute_reduced_degree(S, (2, 1, 1), 5) == 4
    R = pl.HPolytope(2, (((1,), 1), ((2,), 3), ((1, 2), 3)))   # P has none
    assert brute_reduced_degree(R, (1, 1), 2) == 2
