import itertools
import random
from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polylevel as pl
from polylevel.lattice import _structure
from polylevel.levelness import (
    DEFAULT_TABLE_CAP,
    _degree_histogram,
    _iter_failing,
    _restrict,
    _split_exists_dfs,
    _split_feasible_laminar,
)
from polylevel.oracle import (
    brute_interior_points,
    brute_level_star,
    brute_reduced_degree,
)

from conftest import graph_and_bounds


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


def test_int_star_degree_examples(path3_hull, veronese_5333):
    assert pl.int_star_degree(path3_hull) == 1
    assert pl.int_star_degree(veronese_5333) == 3
    for n in (3, 4, 5):
        Q = pl.veronese_polytope(pl.VeroneseSpec(n=n, a=n + 1, c=(n,) + (2,) * (n - 1)))
        assert pl.int_star_degree(Q) == n - 1
        assert pl.conjecture_spectrum(Q)


def test_int_star_degree_empty_interior_raises():
    square = pl.HPolytope(2, (((1,), 1), ((2,), 1)))
    with pytest.raises(ValueError, match="empty interior"):
        pl.int_star_degree(square)
    assert pl.level_star(square) == (False, None)


def test_level_star_witnesses(path3_hull, k34_hull):
    assert pl.level_star(path3_hull) == (True, None)
    lv, wit = pl.level_star(k34_hull)
    assert not lv
    N, a = wit
    assert N == 2
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


@settings(max_examples=30, deadline=None)
@given(graph_and_bounds(max_n=4, max_c=3))
def test_level_iff_degree_one(gc):
    G, c = gc
    P = pl.facets(pl.enumerate_bases(G, c))
    if pl.count_lattice_points(P, 1, "interior") == 0:
        assert pl.level_star(P)[0] is False
        return
    assert pl.level_star(P)[0] == (pl.int_star_degree(P) == 1)


@settings(max_examples=25, deadline=None)
@given(graph_and_bounds(max_n=4, max_c=3))
def test_level_agrees_with_flat_oracle(gc):
    G, c = gc
    P = pl.facets(pl.enumerate_bases(G, c))
    assert pl.level_star(P)[0] == brute_level_star(P)


@settings(max_examples=25, deadline=None)
@given(graph_and_bounds(max_n=4, max_c=3))
def test_reduced_degree_bounded(gc):
    """Degree <= min(N, n-1); needs an interior point of the base polytope."""
    G, c = gc
    P = pl.facets(pl.enumerate_bases(G, c))
    if pl.count_lattice_points(P, 1, "interior") == 0:
        return
    for N in (1, 2, 3):
        for a in pl.lattice_points(P, N, "interior")[:30]:
            r = pl.reduced_degree(P, a, N)
            assert 1 <= r <= min(N, max(1, P.n - 1))


def test_fail_scan_on_two_disjoint_aggregates():
    """Double star: two leaf-pair aggregates, scanner vs naive enumeration."""
    G = pl.graph(6, [(1, 2), (1, 5), (1, 6), (2, 3), (2, 4)])
    P = pl.facets(pl.enumerate_bases(G, (3, 3, 2, 2, 2, 2)))
    st = _structure(P)
    assert [A for A, _ in st.aggs] == [(3, 4), (5, 6)] and st.disjoint
    for N in (2, 3):
        got = []
        _iter_failing(P, st, N, 10**8, collect=got, cap=None)
        naive = [a for a in pl.lattice_points(P, N, "interior")
                 if not _split_exists_dfs(st, a, N, 1)]
        assert got == naive


@settings(max_examples=15, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_fail_scan_matches_naive(gc):
    """The pruned failing-point scan returns exactly the naive failing set."""
    G, c = gc
    P = pl.facets(pl.enumerate_bases(G, c))
    st = _structure(P)
    if not st.disjoint or pl.count_lattice_points(P, 1, "interior") == 0:
        return
    for N in (2, 3):
        collected = []
        _iter_failing(P, st, N, 10**8, collect=collected, cap=None)
        naive = [a for a in pl.lattice_points(P, N, "interior")
                 if not _split_exists_dfs(st, a, N, 1)]
        assert collected == naive


@settings(max_examples=20, deadline=None)
@given(graph_and_bounds(max_n=5, max_c=3))
def test_split_paths_agree(gc):
    """Closed-form split feasibility matches the generic search."""
    G, c = gc
    P = pl.facets(pl.enumerate_bases(G, c))
    st = _structure(P)
    for N in (2, 3):
        for a in pl.lattice_points(P, N, "interior")[:15]:
            for r in range(1, N + 1):
                dfs = _split_exists_dfs(st, a, N, r)
                if st.disjoint or st.laminar:
                    assert _split_feasible_laminar(st, a, N, r) == dfs
                from polylevel.levelness import _split_exists
                assert _split_exists(st, a, N, r) == dfs


def test_analyze_report(k34_hull):
    rep = pl.analyze_polytope(k34_hull)
    assert rep.pseudo_gorenstein and not rep.level
    assert rep.reflexive_up_to_translation is False
    assert rep.interior_count_1 == 1
    assert rep.failure_witness[0] == 2
    assert rep.int_star_degree >= 2
    assert rep.scan_bound == 6
    assert all(r >= 2 for r in rep.reduced_degree_table.values())


def test_analyze_report_empty_interior():
    square = pl.HPolytope(2, (((1,), 1), ((2,), 1)))
    rep = pl.analyze_polytope(square)
    assert rep.interior_count_1 == 0
    assert not rep.level and not rep.pseudo_gorenstein
    assert rep.int_star_degree is None
    assert rep.conjecture_spectrum_holds is None
    assert rep.failure_witness is None


def test_scan_bound_override(veronese_5333):
    # scanning only level 2 misses the degree-3 point at level 3
    assert pl.int_star_degree(veronese_5333, max_level=2) == 2
    assert pl.int_star_degree(veronese_5333, max_level=3) == 3
    rep = pl.analyze_polytope(veronese_5333, max_level=2)
    assert rep.scan_bound == 2


# --- degree histogram by block and twin orbit ------------------------------

def _shuffled_product(draw, blocks):
    """HPolytope of the product of (size, facets) blocks, with the
    coordinates of all blocks shuffled together."""
    n = sum(size for size, _ in blocks)
    perm = draw(st.permutations(range(1, n + 1)))
    upper, offset = [], 0
    for size, facets in draw(st.permutations(blocks)):
        for A, t in facets:
            upper.append((tuple(sorted(perm[offset + i] for i in A)), t))
        offset += size
    return pl.HPolytope(n, tuple(upper))


@st.composite
def block_products(draw):
    """Two small blocks; P has an empty interior.

    One block holds two twins (one singleton bound, one aggregate over
    them), optionally with a third member under a second aggregate over
    all three; the other is a non-laminar pair of crossing aggregates
    {x, y}, {y, z} with bounds too small for an interior point.
    """
    u = draw(st.integers(1, 2))
    twins = [((0,), u), ((1,), u), ((0, 1), draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        twins += [((2,), draw(st.integers(1, 3))), ((0, 1, 2), draw(st.integers(1, 5)))]
    cross = [((0, 1), draw(st.integers(1, 2))), ((1, 2), draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        cross.append(((1,), draw(st.integers(1, 3))))
    return _shuffled_product(draw, [(2 + (len(twins) > 3), twins), (3, cross)])


@st.composite
def interior_products(draw):
    """A twin block with a third member, whose points reach degree 2, times
    a capped coordinate, whose points all have degree 1; the interior is
    nonempty."""
    u = draw(st.integers(2, 3))
    twins = [((0,), u), ((1,), u), ((0, 1), draw(st.integers(4, 5))),
             ((2,), draw(st.integers(2, 3))), ((0, 1, 2), draw(st.integers(4, 5)))]
    box = [((0,), draw(st.integers(2, 3)))]
    return _shuffled_product(draw, [(3, twins), (1, box)])


def _plain_blocks(P):
    """Connected components of the aggregate supports by repeated merging,
    least member first."""
    parts = [{i} for i in range(1, P.n + 1)]
    for A, _t in P.upper_facets:
        touched = [p for p in parts if p & set(A)]
        parts = [p for p in parts if not p & set(A)] + [set().union(*touched)]
    return tuple(sorted(tuple(sorted(p)) for p in parts))


def _flat_histogram(P, levels):
    return dict(Counter((N, brute_reduced_degree(P, a, N))
                        for N in levels for a in brute_interior_points(P, N)))


@settings(max_examples=25, deadline=None)
@given(block_products())
def test_degree_histogram_matches_flat_oracle(P):
    """Histogram by block and twin orbit vs the flat per-point oracle."""
    assert _structure(P).blocks == _plain_blocks(P)
    assert len(_structure(P).blocks) >= 2
    assert not _structure(P).laminar
    hist, _parts = _degree_histogram(P, range(1, 4), 10**8, DEFAULT_TABLE_CAP)
    assert hist == _flat_histogram(P, range(1, 4))


@settings(max_examples=20, deadline=None)
@given(interior_products())
def test_degree_histogram_with_interior_matches_flat_oracle(P):
    """Nonempty interior: every degree is tested, the block sets intersect."""
    assert pl.count_lattice_points(P, 1, "interior") > 0
    hist, _parts = _degree_histogram(P, range(1, 4), 10**8, DEFAULT_TABLE_CAP)
    assert hist == _flat_histogram(P, range(1, 4))


@settings(max_examples=15, deadline=None)
@given(block_products())
def test_degree_histogram_single_block(P):
    """One block alone: the histogram keeps only the least feasible degree."""
    Q = _restrict(P, _structure(P).blocks[0])
    assert _structure(Q).blocks == _plain_blocks(Q) == (tuple(range(1, Q.n + 1)),)
    hist, _parts = _degree_histogram(Q, range(1, 4), 10**8, DEFAULT_TABLE_CAP)
    assert hist == _flat_histogram(Q, range(1, 4))


def test_twin_permutation_keeps_reduced_degree(veronese_5333):
    """Coordinates 2, 3, 4 share bound 3 and the aggregate: twins."""
    for N in (2, 3):
        for a in pl.lattice_points(veronese_5333, N, "interior"):
            r = pl.reduced_degree(veronese_5333, a, N)
            for perm in itertools.permutations(a[1:]):
                assert pl.reduced_degree(veronese_5333, (a[0],) + perm, N) == r


def test_table_cap_not_hit_by_empty_interior_hull():
    """Six vertices, c_i <= 3: the point-by-point table once passed the cap.

    The interior is empty, so every interior point of levels 2..5 has
    reduced degree >= 2 and belongs to the table.
    """
    G = pl.graph(6, [(1, 2), (1, 3), (2, 3), (2, 5), (2, 6), (3, 4), (3, 6)])
    P = pl.facets(pl.enumerate_bases(G, (1, 3, 3, 3, 3, 3)))
    rep = pl.analyze_polytope(P)
    table = rep.reduced_degree_table
    assert rep.interior_count_1 == 0 and rep.int_star_degree == 2
    assert isinstance(table, Mapping) and not hasattr(table, "__setitem__")
    total = sum(pl.count_lattice_points(P, N, "interior") for N in range(2, 6))
    assert len(table) == total > DEFAULT_TABLE_CAP
    for (N, a), r in itertools.islice(table.items(), 40):
        assert N == 2 and pl.reduced_degree(P, a, N) == r
    rng = random.Random(0)
    hits = 0
    for _ in range(400):
        N = rng.randint(2, 5)
        a = tuple(rng.randint(1, 3 * N - 1) for _ in range(6))
        if pl.membership(P, a, N, "interior"):
            hits += 1
            assert table[(N, a)] == pl.reduced_degree(P, a, N)
        else:
            assert (N, a) not in table
    assert hits > 20
    assert (6, (1,) * 6) not in table  # beyond the scanned levels
    with pytest.raises(pl.BudgetExceededError, match="table_cap"):
        pl.analyze_polytope(P, table_cap=1000)


def test_structure_built_once_per_polytope():
    """One request builds the facet structure of the hull and of each
    distinct block polytope once.  Path P4 with c = (1, 1, 2, 1): empty
    interior, blocks {1, 3}, {2}, {4}, the last two alike."""
    P = pl.facets(pl.enumerate_bases(pl.path(4), (1, 1, 2, 1)))
    assert pl.count_lattice_points(P, 1, "interior") == 0
    blocks = _structure(P).blocks
    assert blocks == ((1, 3), (2,), (4,))
    distinct = {P} | {_restrict(P, members) for members in blocks}
    assert len(distinct) == 3
    _structure.cache_clear()
    pl.analyze_polytope(P)
    pl.delta_vector(P)
    pl.lattice_points(P, 1, "interior")
    assert _structure.cache_info().misses == len(distinct)
