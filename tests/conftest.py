import itertools

import pytest
from hypothesis import strategies as st

import polylevel as pl
from polylevel import lattice, levelness, polymatroid


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
def facet_systems(draw, max_n=4, max_t=2, max_aggs=3, laminar=False):
    """A hand-built facet system: optional singleton caps plus up to
    `max_aggs` aggregate facets, which may cross (neither disjoint nor
    nested), unlike the aggregates of a graph hull.  With `laminar`, an
    aggregate that crosses an earlier one is dropped, so any two are
    disjoint or nested."""
    n = draw(st.integers(2, max_n))
    subsets = [A for k in range(2, n + 1)
               for A in itertools.combinations(range(1, n + 1), k)]
    aggs = draw(st.lists(st.sampled_from(subsets), min_size=1,
                         max_size=max_aggs, unique=True))
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
    return pl.HPolytope(n, tuple(facets))


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


# a hand-built crossing system, not a polymatroid, whose splits are not
# monotone in r
NON_MONOTONE = pl.HPolytope(4, (((1,), 3), ((4,), 3), ((1, 2), 3), ((1, 3), 5), ((2, 3), 5)))


# the memos of the per-polymatroid answers: `analyze_polytope` and
# `delta_vector` normalize their arguments and call these private caches,
# and `_report` asks `_class_report` on a miss
MEMOS = (polymatroid.facets, levelness._report, levelness._class_report,
         lattice._delta_vector)


def clear_memos():
    for memo in (*MEMOS, lattice._structure):
        memo.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    """Start every test with empty memos and structure cache, so that no
    test is served an answer an earlier one cached (say, while it had a
    layer monkeypatched)."""
    clear_memos()
