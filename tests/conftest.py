import itertools
from functools import lru_cache

import pytest
from hypothesis import strategies as st

import polylevel as pl
from polylevel import bounded, lattice, levelness, polymatroid
from polylevel.oracle import _box_points
from polylevel.polymatroid import Polymatroid


@pytest.fixture(scope="session")
def path3_hull():
    return pl.facets(pl.enumerate_bases(pl.path(3), (2, 3, 2)))


@pytest.fixture(scope="session")
def triangle_hull():
    return pl.facets(pl.enumerate_bases(pl.cycle(3), (1, 1, 1)))


@pytest.fixture(scope="session")
def k34_hull():
    return pl.facets(pl.enumerate_bases(pl.complete_bipartite(3, 4), (2,) * 7))


@pytest.fixture(scope="session")
def cube4():
    return pl.HPolytope(4, tuple(((i,), 2) for i in range(1, 5)))


@st.composite
def graph_and_bounds(draw, max_n=5, max_c=3):
    """A small simple graph without isolated vertices plus a bound vector."""
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = set(draw(st.lists(st.sampled_from(pairs), min_size=1,
                              max_size=len(pairs), unique=True)))
    covered = {v for e in edges for v in e}
    for v in range(1, n + 1):
        if v not in covered:
            edges.add((v, v % n + 1) if v < n else (1, n))
    G = pl.graph(n, edges)
    c = tuple(draw(st.integers(1, max_c)) for _ in range(n))
    return G, c


@st.composite
def _facet_draws(draw, max_n, max_t, max_aggs, laminar, crossing=False):
    n = draw(st.integers(3 if crossing else 2, max_n))
    subsets = [A for k in range(2, n + 1)
               for A in itertools.combinations(range(1, n + 1), k)]
    aggs = draw(st.lists(st.sampled_from(subsets), min_size=1,
                         max_size=max_aggs, unique=True))
    if crossing:    # the first two cross
        pairs = [(A, B) for A, B in itertools.combinations(subsets, 2) if crosses([(A, 1), (B, 1)])]
        aggs = list(dict.fromkeys([*draw(st.sampled_from(pairs)), *aggs]))[:max(2, max_aggs)]
    if laminar:
        kept = []
        for A in map(set, aggs):
            if all(not A & B or A <= B or B <= A for B in kept):
                kept.append(A)
        aggs = [tuple(sorted(A)) for A in kept]
    caps = draw(st.lists(st.one_of(st.none(), st.integers(1, max_t)),
                         min_size=n, max_size=n))
    facets = [((i,), t) for i, t in enumerate(caps, 1) if t is not None]
    facets += [(A, draw(st.integers(1, max_t))) for A in aggs]
    covered = {i for A, _t in facets for i in A}
    facets += [((i,), max_t) for i in range(1, n + 1) if i not in covered]
    return system(n, facets)


def facet_systems(max_n=4, max_t=2, max_aggs=3, laminar=False):
    """A hand-built facet system: optional singleton caps plus up to
    `max_aggs` aggregate facets.  Laminar draws are `HPolytope`s; the
    aggregates of the others may cross (neither disjoint nor nested), as
    those of some graph hulls do, and such a draw is kept, as a
    `Polymatroid`, only when it is an integral polymatroid (about half
    are).  With `laminar`, an aggregate that crosses an earlier one is
    dropped, so any two are disjoint or nested."""
    return _facet_draws(max_n, max_t, max_aggs, laminar).filter(admissible)


def crossing_systems(max_n=4, max_t=2, max_aggs=3):
    """Draws as `facet_systems` makes them, whose first two aggregates
    cross: integral polymatroids, built as `Polymatroid`s."""
    return _facet_draws(max_n, max_t, max_aggs, False, crossing=True).filter(admissible)


def crosses(facets) -> bool:
    """Do two aggregate facets (|A| >= 2) cross, neither disjoint nor
    nested?  Read off the facets, not off the library."""
    aggs = [set(A) for A, _t in facets if len(A) > 1]
    return any(X & Y and not X <= Y and not Y <= X for X, Y in itertools.combinations(aggs, 2))


def system(n, facets):
    """The facet system as an `HPolytope`, or as a `Polymatroid` when its
    aggregates cross, the one type that may hold such a system; pass it
    through `admissible` before using it as a polymatroid."""
    facets = tuple(facets)
    return Polymatroid(n, facets) if crosses(facets) else pl.HPolytope(n, facets)


def admissible(P) -> bool:
    """Does P satisfy its type's contract: laminar, or an integral
    polymatroid?"""
    return not crosses(P.upper_facets) or is_integral_polymatroid(P)


def flat_rank(P):
    """f(X), X a bitmask, the largest x(X) over the lattice points of P by
    flat scan."""
    f = [0] * (1 << P.n)
    for x in _box_points(P, 1, False):
        sums = [0] * (1 << P.n)
        for X in range(1, 1 << P.n):
            low = X & -X
            sums[X] = sums[X ^ low] + x[low.bit_length() - 1]
            f[X] = max(f[X], sums[X])
    return f


@lru_cache(maxsize=None)     # hypothesis draws many systems more than once
def is_integral_polymatroid(P) -> bool:
    """Is P an integral polymatroid?  Its flat rank f must be normalized,
    monotone and submodular, so that {x >= 0: x(X) <= f(X) for all X} is
    an integral polymatroid P_f with the lattice points of P (every facet
    (A, t) of P has f(A) <= t); and every vertex of P must be integral,
    so that P is the hull of those points, which is P_f.  Checked from
    flat scans of P alone, for small n."""
    f = flat_rank(P)
    subsets = range(1 << P.n)
    monotone = all(f[X] <= f[X | 1 << i] for X in subsets for i in range(P.n))
    submodular = all(f[X] + f[Y] >= f[X | Y] + f[X & Y] for X in subsets for Y in subsets)
    return f[0] == 0 and monotone and submodular and _vertices_integral(P)


def _vertices_integral(P) -> bool:
    """Is every vertex of P integral?  Exact: a vertex is the one solution
    of n of the equations x_i = 0 and x(A) = t that lies in P, each
    coordinate a quotient of integers by the determinant of its rows."""
    n = P.n
    rows = [(tuple(int(k == i) for k in range(n)), 0) for i in range(n)]
    rows += [(tuple(int(k + 1 in A) for k in range(n)), t) for A, t in P.upper_facets]
    for chosen in itertools.combinations(rows, n):
        inverse = _scaled_inverse(tuple(a for a, _b in chosen))
        if inverse is None:
            continue
        inv, det = inverse
        x = [sum(c * b for c, (_a, b) in zip(row, chosen)) for row in inv]   # det * vertex
        if (min(x) >= 0 and all(sum(x[i - 1] for i in A) <= t * det for A, t in P.upper_facets)
                and any(v % det for v in x)):
            return False
    return True


@lru_cache(maxsize=None)
def _scaled_inverse(rows):
    """(d M^-1, d) for the square integer matrix M = `rows`, d = |det M|,
    by fraction-free Gauss-Jordan elimination of [M | I] (Bareiss: each
    division is exact), or None when M is singular."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        pivot = m[c]
        for r in range(n):
            if r != c:
                m[r] = [(pivot[c] * v - m[r][c] * w) // prev for v, w in zip(m[r], pivot)]
        prev = pivot[c]
    sign = 1 if prev > 0 else -1
    return tuple(tuple(sign * v for v in row[n:]) for row in m), sign * prev


@st.composite
def veronese_specs(draw):
    """A box-and-cutoff spec in dimension 2-5, boxes small enough for a flat scan."""
    n = draw(st.integers(2, 5))
    c = sorted(draw(st.lists(st.integers(2, 7 - n), min_size=n, max_size=n)), reverse=True)
    a = draw(st.integers(max(c[0] + 1, n + 1), sum(c) - 1))
    return pl.VeroneseSpec(n=n, a=a, c=tuple(c))


def relabel(P, perm):
    """P with coordinate i renamed perm[i - 1], of the same type and with
    its facets in the same order."""
    return type(P)(P.n, tuple((tuple(sorted(perm[i - 1] for i in A)), t)
                              for A, t in P.upper_facets))


def relabel_graph(G, c, perm):
    """(G, c) with vertex i renamed perm[i - 1]: its hull, built by
    `facets`, is the hull of (G, c) relabelled by perm."""
    c = [c[perm.index(v)] for v in range(1, G.n + 1)]
    return pl.graph(G.n, [(perm[i - 1], perm[j - 1]) for i, j in G.edges]), tuple(c)


def aggregates_disjoint(P):
    """Are the aggregate facets of P (|A| >= 2) pairwise disjoint, so that
    every block is one aggregate or a lone coordinate?  Read off the
    facets, not off `lattice._structure`."""
    aggs = [set(A) for A, _t in P.upper_facets if len(A) > 1]
    return all(not X & Y for X, Y in itertools.combinations(aggs, 2))


# crossing systems that are not polymatroids, as (n, facets): an
# `HPolytope` rejects them.  In NON_MONOTONE, level*, the interior point
# (4, 4, 10, 1) of 3P splits at r = 1 and 3 but not at r = 2.  TRIANGLE,
# {x_i + x_j <= 1}, holds the lattice points of a polymatroid, 0 and the
# unit vectors, but has the vertex (1/2, 1/2, 1/2) and is not normal.
NON_MONOTONE = (4, (((1,), 3), ((4,), 3), ((1, 2), 3), ((1, 3), 5), ((2, 3), 5)))
TRIANGLE = (3, (((1, 2), 1), ((1, 3), 1), ((2, 3), 1)))

# graph hulls on 6 vertices with crossing aggregates (the first n at which
# they occur), as (edges, c): two with an empty interior, one with four
# interior points
CROSSING_GRAPHS = [
    ([(1, 2), (1, 3), (1, 5), (2, 4), (3, 6)], (1, 4, 2, 2, 3, 1)),
    ([(1, 2), (1, 6), (2, 4), (2, 6), (3, 6), (4, 5), (5, 6)], (2, 1, 3, 1, 4, 2)),
    ([(1, 2), (1, 4), (2, 3), (3, 6), (4, 6), (5, 6)], (2, 2, 3, 3, 2, 2)),
]


def crossing_hull(k=0):
    """The hull of CROSSING_GRAPHS[k], a `Polymatroid` whose aggregates
    cross."""
    edges, c = CROSSING_GRAPHS[k]
    return pl.facets(pl.enumerate_bases(pl.graph(6, edges), c))


# the memos of the per-input answers: `enumerate_bases`, `analyze_polytope`
# and `delta_vector` normalize their arguments and call private caches,
# and `_bases` asks `_class_bases`, `facets` `_class_facets` on a miss
MEMOS = (bounded._bases, bounded._class_bases, polymatroid.facets, polymatroid._class_facets,
         levelness._report, lattice._delta_vector)


def clear_memos():
    for memo in (*MEMOS, lattice._structure):
        memo.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    """Start every test with empty memos and structure cache, so that no
    test is served an answer an earlier one cached (say, while it had a
    layer monkeypatched)."""
    clear_memos()
