from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polylevel as pl
from polylevel.errors import BudgetExceededError
from polylevel.lattice import _restrict, _structure
from polylevel.polymatroid import Polymatroid, RankOracle, is_closed_mask, is_inseparable_mask

from conftest import (NON_MONOTONE, TRIANGLE, admissible, crossing_hull, flat_rank,
                      graph_and_bounds, is_integral_polymatroid, veronese_specs)


@pytest.fixture(scope="module")
def path3_basis():
    return pl.enumerate_bases(pl.path(3), (2, 3, 2))


def test_rank_values(path3_basis):
    R = RankOracle.from_basis_set(path3_basis)
    assert R.rank_mask(0b101) == 3              # {1, 3}
    assert R.rank_mask(0b011) == 5 == R.rank_mask(0b001) + R.rank_mask(0b010)
    assert R.rank_mask(0b111) == 2 * path3_basis.delta_c
    assert R.rank_mask(0) == 0


def test_closed_and_inseparable(path3_basis):
    """Subsets as bitmasks, bit i - 1 for element i."""
    R = RankOracle.from_basis_set(path3_basis)
    assert is_closed_mask(R, 0b101)              # {1, 3}
    assert not is_inseparable_mask(R, 0b011)     # {1, 2}
    assert is_inseparable_mask(R, 0b101)
    assert is_inseparable_mask(R, 0b010)         # singletons always
    assert is_closed_mask(R, 0b111)              # no proper superset
    with pytest.raises(ValueError):
        is_closed_mask(R, 0)


def test_k34_saturated_side_closed():
    B = pl.enumerate_bases(pl.complete_bipartite(3, 4), (2,) * 7)
    R = RankOracle.from_basis_set(B)
    assert is_closed_mask(R, 0b1000)             # {4}
    assert R.rank_mask(0b1000) == 2


def test_polymatroid_constructions_keep_the_type():
    """`facets`, `veronese_polytope` and the block polytopes of a
    `Polymatroid` are `Polymatroid`s; a hand-built `HPolytope` with the
    same facets is not one, and compares unequal."""
    P = pl.facets(pl.enumerate_bases(pl.path(4), (1, 1, 2, 1)))
    V = pl.veronese_polytope(pl.VeroneseSpec(n=3, a=5, c=(4, 3, 2)))
    for Q in (P, V, pl.star_prism(pl.VeroneseSpec(n=2, a=3, c=(2, 2)))):
        assert isinstance(Q, Polymatroid)
    blocks = [_restrict(P, members) for members in _structure(P).blocks]
    assert len(blocks) == 3
    assert all(isinstance(B, Polymatroid) for B in blocks)
    plain = pl.HPolytope(P.n, P.upper_facets)
    assert not isinstance(plain, Polymatroid)
    assert not isinstance(_restrict(plain, (1, 3)), Polymatroid)
    assert plain != P


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    veronese_specs().map(pl.veronese_polytope),
    veronese_specs().filter(lambda spec: spec.n <= 4).map(pl.star_prism),
    graph_and_bounds(max_n=5, max_c=3).map(lambda gc: pl.facets(pl.enumerate_bases(*gc))),
))
def test_polymatroid_type_is_an_integral_polymatroid(P):
    """The contract of the type `Polymatroid`: `veronese_polytope`,
    `star_prism` and `facets` return the lattice points of an integral
    polymatroid, with n <= 5, checked from the flat scan of P alone."""
    assert isinstance(P, Polymatroid) and P.n <= 5
    assert is_integral_polymatroid(P)


def test_non_polymatroid_fails_the_contract():
    """Two crossing systems, built through the private type.  TRIANGLE's
    flat rank is that of a matroid, min(|X|, 1), so its lattice points are
    those of a polymatroid, but its vertex (1/2, 1/2, 1/2) is not integral
    (and (1, 1, 1) in 2P is no sum of two points of P).  The flat rank of
    NON_MONOTONE is not submodular: f({1,2}) + f({1,3}) = 8 < f({1,2,3}) +
    f({1}) = 9.  Neither passes the referee that filters the crossing
    draws of `facet_systems`; a crossing graph hull does."""
    triangle = Polymatroid(*TRIANGLE)
    assert flat_rank(triangle) == [0] + [1] * 7
    f = flat_rank(Polymatroid(*NON_MONOTONE))
    assert (f[0b011] + f[0b101], f[0b111] + f[0b001]) == (8, 9)
    for P in (triangle, Polymatroid(*NON_MONOTONE)):
        assert not is_integral_polymatroid(P) and not admissible(P)
    assert admissible(_restrict(crossing_hull(), (2, 3, 5)))


@pytest.mark.parametrize("n, facets", [NON_MONOTONE, TRIANGLE], ids=["non-monotone", "triangle"])
def test_hand_built_crossing_system_is_rejected(n, facets):
    """An `HPolytope` must be laminar, so that it has the integer
    decomposition property: crossing aggregates raise ValueError naming
    the rule and the first two that cross.  The private `Polymatroid`
    takes them, and so does `_restrict` of one."""
    with pytest.raises(ValueError, match=r"facets over \[1, 2\] and \[1, 3\] cross: "
                                         "a hand-built HPolytope must be laminar"):
        pl.HPolytope(n, facets)
    P = Polymatroid(n, facets)
    assert P.upper_facets == facets and type(_restrict(P, (1, 2, 3))) is Polymatroid


@settings(max_examples=30, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_rank_monotone_submodular(gc):
    G, c = gc
    R = RankOracle.from_basis_set(pl.enumerate_bases(G, c))
    size = 1 << G.n
    for b in range(G.n):
        assert R.rank_mask(1 << b) >= 1    # unit vectors are divisors
    for x in range(size):
        rx = R.rank_mask(x)
        for b in range(G.n):
            assert rx <= R.rank_mask(x | (1 << b))
    for x in range(size):
        for y in range(size):
            assert R.rank_mask(x) + R.rank_mask(y) >= R.rank_mask(x | y) + R.rank_mask(x & y)


def test_facets_known(path3_basis):
    P = pl.facets(path3_basis)
    assert P.upper_facets == (((1,), 2), ((2,), 3), ((3,), 2), ((1, 3), 3))


def test_facets_dimension_cap():
    B = pl.BasisSet(n=17, delta_c=1, bases=(tuple([2] + [0] * 16),))
    with pytest.raises(BudgetExceededError) as exc:
        pl.facets(B)
    assert (exc.value.cap, exc.value.limit) == ("FACET_SCAN_MAX_DIM", 16)


def test_equal_side_sums_give_box():
    B = pl.enumerate_bases(pl.complete_bipartite(2, 2), (2, 2, 2, 2))
    P = pl.facets(B)
    assert P.upper_facets == (((1,), 2), ((2,), 2), ((3,), 2), ((4,), 2))
    B2 = pl.enumerate_bases(pl.complete_bipartite(2, 3), (3, 3, 2, 2, 2))
    assert pl.facets(B2).upper_facets == tuple(((i,), c) for i, c in
                                               zip(range(1, 6), (3, 3, 2, 2, 2)))


def test_heavy_side_shape():
    """Strictly heavy side: box off the saturated indices plus one aggregate."""
    G = pl.complete_bipartite(3, 2)                 # heavy side [3]
    for c in [(2, 2, 2, 2, 2), (4, 2, 2, 2, 2), (3, 3, 2, 2, 2)]:
        R = sum(c[3:])
        if sum(c[:3]) <= R:
            continue
        P = pl.facets(pl.enumerate_bases(G, c))
        A = {i for i in range(1, 4) if c[i - 1] == R}
        expected = [((i,), c[i - 1]) for i in range(1, 4) if i not in A]
        expected += [((i,), c[i - 1]) for i in (4, 5)]
        expected.sort()
        expected.append(((1, 2, 3), R))
        assert P.upper_facets == tuple(sorted(expected, key=lambda ft: (len(ft[0]), ft[0])))


@settings(max_examples=25, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_h_representation_matches_divisors(gc):
    G, c = gc
    B = pl.enumerate_bases(G, c)
    P = pl.facets(B)
    assert pl.lattice_points(P, 1, "full") == pl.divisor_set(B)


def _affine_rank(points) -> int:
    if not points:
        return 0
    base = points[0]
    rows = [[Fraction(x - y) for x, y in zip(p, base)] for p in points[1:]]
    rank = 0
    cols = len(base)
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    rank = r
    return rank + 1


@settings(max_examples=20, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_facets_are_facet_defining(gc):
    """Every reported upper facet is tight on n affinely independent points."""
    G, c = gc
    B = pl.enumerate_bases(G, c)
    P = pl.facets(B)
    pts = pl.divisor_set(B)
    for A, t in P.upper_facets:
        tight = [p for p in pts if sum(p[i - 1] for i in A) == t]
        assert _affine_rank(tight) >= G.n, (A, t)


def test_veronese_polytope_and_validation():
    spec = pl.VeroneseSpec(n=4, a=6, c=(5, 3, 3, 3))
    P = pl.veronese_polytope(spec)
    assert len(P.upper_facets) == 5
    spec2 = pl.VeroneseSpec(n=3, a=4, c=(2, 2, 2))
    assert pl.veronese_polytope(spec2).upper_facets == (
        ((1,), 2), ((2,), 2), ((3,), 2), ((1, 2, 3), 4))
    with pytest.raises(ValueError):
        pl.VeroneseSpec(n=2, a=9, c=(4, 4))      # a >= sum(c)
    with pytest.raises(ValueError):
        pl.VeroneseSpec(n=2, a=2, c=(2, 2))      # a <= c_1
    with pytest.raises(ValueError):
        pl.VeroneseSpec(n=3, a=5, c=(2, 2, 1))   # c_n < 2
    with pytest.raises(ValueError):
        pl.VeroneseSpec(n=3, a=5, c=(2, 3, 2))   # not weakly decreasing


def test_star_prism_is_lifted_veronese():
    for spec in (pl.VeroneseSpec(n=2, a=3, c=(2, 2)),
                 pl.VeroneseSpec(n=4, a=6, c=(5, 3, 3, 3)),
                 pl.VeroneseSpec(n=3, a=5, c=(4, 3, 2))):
        SP = pl.star_prism(spec)
        lifted = [((1,), spec.a)]
        lifted += [((i + 1,), ci) for i, ci in enumerate(spec.c, start=1)]
        lifted.sort()
        lifted.append((tuple(range(2, spec.n + 2)), spec.a))
        assert SP.upper_facets == tuple(sorted(lifted, key=lambda ft: (len(ft[0]), ft[0])))


def test_hpolytope_validation():
    """Facets given as lists are kept as tuples, so the polytope hashes."""
    for ups in ([((1,), 2), ((2,), 2)], (([1], 2), ((2,), 2))):
        P = pl.HPolytope(2, ups)
        assert P.upper_facets == (((1,), 2), ((2,), 2)) and pl.count_lattice_points(P, 1) == 9
    with pytest.raises(ValueError, match="unbounded"):
        pl.HPolytope(2, (((1,), 2),))
    with pytest.raises(ValueError, match="duplicate"):
        pl.HPolytope(1, (((1,), 2), ((1,), 3)))
    with pytest.raises(ValueError):
        pl.HPolytope(1, (((1,), 0),))
    with pytest.raises(ValueError):
        pl.HPolytope(2, (((2, 1), 2),))


def test_hpolytope_rejects_non_integers():
    """Dimension, bounds and subset indices must be integers; NumPy
    integers pass."""
    import numpy as np

    with pytest.raises(ValueError, match="integers"):
        pl.HPolytope(2, (((1,), 1.5), ((2,), 2)))
    with pytest.raises(ValueError, match="integers"):
        pl.HPolytope(2, (((1.0,), 1), ((2,), 2)))
    with pytest.raises(ValueError, match="integers"):
        pl.HPolytope(2.0, (((1,), 1), ((2,), 2)))
    with pytest.raises(ValueError, match="integers"):     # checked before t < 1
        pl.HPolytope(2, (((1,), "3"), ((2,), 2)))
    with pytest.raises(ValueError, match="integers"):     # checked before 1 <= i
        pl.HPolytope(2, ((("1",), 3), ((2,), 2)))
    P = pl.HPolytope(2, (((np.int64(1),), np.int64(3)), ((2,), 2)))
    assert pl.count_lattice_points(P, 1) == 12
