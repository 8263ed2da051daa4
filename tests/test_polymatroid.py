from fractions import Fraction

import pytest
from hypothesis import given, settings

import polylevel as pl
from polylevel.errors import BudgetExceededError
from polylevel.polymatroid import RankOracle

from conftest import graph_and_bounds


@pytest.fixture(scope="module")
def path3_basis():
    return pl.enumerate_bases(pl.path(3), (2, 3, 2))


def test_rank_values(path3_basis):
    R = RankOracle.from_basis_set(path3_basis)
    assert R.rank({1, 3}) == 3
    assert R.rank({1, 2}) == 5 == R.rank({1}) + R.rank({2})
    assert R.rank({1, 2, 3}) == 2 * path3_basis.delta_c
    assert R.rank(()) == 0


def test_closed_and_inseparable(path3_basis):
    R = RankOracle.from_basis_set(path3_basis)
    assert pl.is_closed(R, {1, 3})
    assert not pl.is_inseparable(R, {1, 2})
    assert pl.is_inseparable(R, {1, 3})
    assert pl.is_inseparable(R, {2})          # singletons always
    assert pl.is_closed(R, {1, 2, 3})         # no proper superset
    with pytest.raises(ValueError):
        pl.is_closed(R, ())


def test_k34_saturated_side_closed():
    B = pl.enumerate_bases(pl.complete_bipartite(3, 4), (2,) * 7)
    R = RankOracle.from_basis_set(B)
    assert pl.is_closed(R, {4})
    assert R.rank({4}) == 2


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
    P = pl.HPolytope(2, (((np.int64(1),), np.int64(3)), ((2,), 2)))
    assert pl.count_lattice_points(P, 1) == 12
