"""Request streams, referee checks and shape counts for the three workloads.

A stream is an endless, seeded sequence of requests built in *rounds*: each
round holds a fixed number of requests of each input class, in an order the
seed shuffles, and each request is a fresh random instance of its class.
Rounds fix the share of each class, so the seed changes which instances
arrive but not how many heavy ones arrive.  A run serves a pool of the
first whole rounds of the stream; see run.py.

`serve` functions call the library only through the `polylevel` package
attributes, looked up at call time, so that a traced run can replace them.
`check` functions run outside the timed region and compare each answer with
the naive referee in `polylevel.oracle` or with a closed-form criterion.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

# --- analyze ---------------------------------------------------------------
# (vertices, bound values).  Each round: one small hull, then one large hull
# per large bound value.  Larger hulls are left out because a run holds too
# few of them for a steady rate: with c_i = 3 at n = 5 a request takes up to
# 1.25 s, at n = 6 0.1-6.5 s, and some n = 6 hulls exceed the table cap
# (see README.md).
ANALYZE_SMALL = (4, (1, 2, 3))
ANALYZE_LARGE = (5, (1, 2))
ANALYZE_EDGE_P = 0.5
# brute_level_star compares every interior point of each dilate with every
# interior point of P; it referees a verdict only below this many pairs
ORACLE_LEVEL_PAIRS = 50_000
ORACLE_VOLUME_MAX_N = 4

# --- labeling-search -------------------------------------------------------
LABEL_CMAX = 2
LABEL_TREE_N = (6, 7)
LABEL_BIPARTITE = tuple((m, k) for m in range(2, 5) for k in range(2, 5))

# --- veronese-ehrhart ------------------------------------------------------
# Each round: one spec in dimension 3 and one in dimension 4 per value of
# c_i.  Across the dimension-4 specs of a round each coordinate of c takes
# every value once and the cutoffs come from different quarters of their
# ranges (a Latin hypercube): box size and cutoff drive the work, so every
# round holds the same spread of light and heavy specs.
VERONESE_DIMS = (3, 4)
VERONESE_C = (2, 5)
NORMALITY_LEVEL = 2

DIGEST_PREFIX = 64

# pool requests per second of --seconds, rounded to whole rounds: serving
# the pool takes about 0.8 of --seconds on the reference machine (see
# README.md).  The figures are statistics of the pool, so its size sets how
# much they move from seed to seed.
ANALYZE_POOL_PER_S = 57.0       # 30 s: 570 rounds of 3
LABEL_POOL_PER_S = 8.8          # 30 s: 15 rounds of 18
VERONESE_POOL_PER_S = 21.6      # 30 s: 130 rounds of 5


@dataclass(frozen=True)
class Workload:
    name: str
    round_size: int           # requests in one round of the stream
    pool_per_s: float         # pool requests per second of --seconds
    stream: Callable          # (pl, seed) -> iterator of requests
    warmup: Callable          # (pl) -> one fixed request
    serve: Callable           # (pl, request) -> result
    check: Callable           # (pl, oracle, request, result, memo) -> list of problems
    canonical: Callable       # (request, result) -> hashable summary
    shapes: Callable          # (requests, results) -> list of (label, count)

    def pool_size(self, seconds: float) -> int:
        return self.round_size * max(1, round(seconds * self.pool_per_s / self.round_size))


def _rounds(seed: int, slots, draw):
    rng = random.Random(seed)
    while True:
        order = list(slots)
        rng.shuffle(order)
        for slot in order:
            yield draw(rng, slot)


def _connected(n: int, edges) -> bool:
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _aggregates_disjoint(P) -> bool:
    covered: set[int] = set()
    for A, _t in P.upper_facets:
        if len(A) >= 2:
            if covered.intersection(A):
                return False
            covered.update(A)
    return True


# --- analyze ---------------------------------------------------------------

def _analyze_stream(pl, seed: int):
    rng = random.Random(seed)

    def draw(n, c):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        while True:
            edges = [e for e in pairs if rng.random() < ANALYZE_EDGE_P]
            if edges and _connected(n, edges):
                return pl.graph(n, edges), c

    (n_small, c_small), (n_large, c_large) = ANALYZE_SMALL, ANALYZE_LARGE
    while True:
        # across the large hulls of a round each c_i takes every value once
        # (a Latin hypercube): every c_i stays uniform, but the total bound,
        # which drives the work, is balanced within the round
        columns = [rng.sample(c_large, len(c_large)) for _ in range(n_large)]
        batch = [draw(n_small, tuple(rng.choice(c_small) for _ in range(n_small)))]
        batch += [draw(n_large, tuple(col[k] for col in columns)) for k in range(len(c_large))]
        rng.shuffle(batch)
        yield from batch


def _analyze_warmup(pl):
    return pl.path(4), (2, 2, 2, 2)


def _analyze_serve(pl, req):
    """The calls of `polylevel analyze`, in its order, returning the fields
    of its report; the reduced-degree table is dropped with the report."""
    G, c = req
    B = pl.enumerate_bases(G, c)
    P = pl.facets(B)
    rep = pl.analyze_polytope(P)
    dv = pl.delta_vector(P)
    interior = pl.lattice_points(P, 1, "interior")
    return {
        "delta_c": B.delta_c, "bases": B.bases, "polytope": P, "interior": tuple(interior),
        "interior_count": rep.interior_count_1, "pseudo_gorenstein": rep.pseudo_gorenstein,
        "level": rep.level, "int_star_degree": rep.int_star_degree,
        "reflexive": rep.reflexive_up_to_translation, "witness": rep.failure_witness,
        "scan_bound": rep.scan_bound, "delta": dv.delta, "unimodal": pl.is_unimodal(dv),
    }


def _level_pairs(P, n_inner: int) -> int:
    ubs = [min(t for A, t in P.upper_facets if i in A) for i in range(1, P.n + 1)]
    total = 0
    for N in range(2, max(2, P.n - 1) + 1):
        box = 1
        for ub in ubs:
            box *= N * ub - 1
        total += box * n_inner
    return total


def _brute_level(oracle, P, memo):
    """`brute_level_star(P)` when its scan fits ORACLE_LEVEL_PAIRS, else None;
    counts the verdicts it gives in memo["level_refereed"]."""
    key = ("level", P.upper_facets)
    if key not in memo:
        inner = oracle.brute_interior_points(P, 1)
        memo[key] = (oracle.brute_level_star(P)
                     if _level_pairs(P, len(inner)) <= ORACLE_LEVEL_PAIRS else None)
    memo["level_refereed"] = memo.get("level_refereed", 0) + (memo[key] is not None)
    return memo[key]


def _analyze_check(pl, oracle, req, res, memo):
    G, c = req
    P, interior = res["polytope"], res["interior"]
    bad = []
    key = ("bases", G.edges, c)
    if key not in memo:
        memo[key] = oracle.brute_bases(G, c)
    delta, bases = memo[key]
    if res["delta_c"] != delta or res["bases"] != tuple(bases):
        bad.append(f"bases: delta_c {res['delta_c']}, {len(res['bases'])} bases "
                   f"vs oracle delta_c {delta}, {len(bases)} bases")
    brute = _brute_level(oracle, P, memo)
    if brute is not None and brute != res["level"]:
        bad.append(f"level* {res['level']} vs oracle {brute}")
    if P.n <= ORACLE_VOLUME_MAX_N:
        key = ("volume", P.upper_facets)
        if key not in memo:
            memo[key] = oracle.brute_volume(P)
        if sum(res["delta"]) != memo[key]:
            bad.append(f"normalized volume {sum(res['delta'])} vs oracle {memo[key]}")
    if not len(interior) == res["interior_count"] == res["delta"][-1]:
        bad.append(f"interior count {len(interior)} / {res['interior_count']} "
                   f"/ delta_n {res['delta'][-1]}")
    if res["pseudo_gorenstein"] != (len(interior) == 1):
        bad.append("pseudo-Gorenstein* disagrees with the interior count")
    if interior and res["level"] != (res["int_star_degree"] == 1):
        bad.append(f"level* {res['level']} with int* degree {res['int_star_degree']}")
    return bad


def _analyze_canonical(req, res):
    G, c = req
    fields = tuple((k, v.upper_facets if k == "polytope" else v) for k, v in sorted(res.items()))
    return (G.n, tuple(sorted(G.edges)), c) + fields


def _analyze_shapes(reqs, results):
    seen: set = set()
    empty = overlapping = repeated = 0
    for res in results:
        P = res["polytope"]
        empty += not res["interior"]
        overlapping += not _aggregates_disjoint(P)
        repeated += P.upper_facets in seen
        seen.add(P.upper_facets)
    return [("empty level-1 interior", empty),
            ("aggregate facets not pairwise disjoint", overlapping),
            ("facet system repeats an earlier request", repeated)]


# --- labeling-search -------------------------------------------------------

def _label_stream(pl, seed: int):
    slots = [("tree", LABEL_TREE_N[k % len(LABEL_TREE_N)]) for k in range(len(LABEL_BIPARTITE))]
    slots += [("bipartite", mk) for mk in LABEL_BIPARTITE]

    def draw(rng, slot):
        kind, p = slot
        if kind == "tree":
            parents = tuple(rng.randint(1, v - 1) for v in range(2, p + 1))
            return kind, parents, pl.tree_from_parents(parents)
        return kind, p, pl.complete_bipartite(*p)

    return _rounds(seed, slots, draw)


def _label_warmup(pl):
    return "bipartite", (2, 3), pl.complete_bipartite(2, 3)


def _label_serve(pl, req):
    return pl.search_labeling(req[2], LABEL_CMAX)


def _label_check(pl, oracle, req, found, memo):
    kind, p, G = req
    expected = (pl.tree_labeling_pseudo_gorenstein(G) if kind == "tree"
                else pl.bipartite_labeling_classification(*p))
    bad = []
    if (found is not None) != expected:
        bad.append(f"{kind} {p}: search found {found}, criterion says {expected}")
    if found is not None and (len(found) != G.n or not all(1 <= x <= LABEL_CMAX for x in found)):
        bad.append(f"{kind} {p}: witness {found} outside [1..{LABEL_CMAX}]^{G.n}")
    return bad


def _label_canonical(req, found):
    return req[0], req[1], found


def _label_shapes(reqs, results):
    trees = sum(1 for r in reqs if r[0] == "tree")
    return [("tree requests", trees), ("bipartite requests", len(reqs) - trees),
            ("witness found", sum(1 for f in results if f is not None))]


# --- veronese-ehrhart ------------------------------------------------------

def _veronese_stream(pl, seed: int):
    rng = random.Random(seed)
    values = range(VERONESE_C[0], VERONESE_C[1] + 1)
    small_n, large_n = VERONESE_DIMS

    def draw(c, u):
        """The spec with c sorted and the cutoff at fraction u of its range."""
        c = tuple(sorted(c, reverse=True))
        lo, hi = max(c[0] + 1, len(c) + 1), sum(c) - 1
        spec = pl.VeroneseSpec(n=len(c), a=lo + int(u * (hi - lo + 1)), c=c)
        return spec, pl.veronese_polytope(spec)

    k = len(values)
    while True:
        columns = [rng.sample(values, k) for _ in range(large_n)]
        quarters = rng.sample(range(k), k)
        batch = [draw([rng.choice(values) for _ in range(small_n)], rng.random())]
        batch += [draw([col[j] for col in columns], (quarters[j] + rng.random()) / k)
                  for j in range(k)]
        rng.shuffle(batch)
        yield from batch


def _veronese_warmup(pl):
    spec = pl.VeroneseSpec(n=3, a=5, c=(3, 2, 2))
    return spec, pl.veronese_polytope(spec)


def _veronese_serve(pl, req):
    spec, P = req
    dv = pl.delta_vector(P)
    return (dv, pl.is_unimodal(dv), pl.normality_check(P, NORMALITY_LEVEL),
            pl.veronese_level_criterion(spec))


def _veronese_check(pl, oracle, req, res, memo):
    spec, P = req
    dv, unimodal, normal, crit = res
    bad = []
    if not normal[0]:
        bad.append(f"{spec}: normality fails at {normal[1]}")
    if P.n <= ORACLE_VOLUME_MAX_N:
        key = ("volume", P.upper_facets)
        if key not in memo:
            memo[key] = oracle.brute_volume(P)
        if sum(dv.delta) != memo[key]:
            bad.append(f"{spec}: normalized volume {sum(dv.delta)} vs oracle {memo[key]}")
    brute = _brute_level(oracle, P, memo)
    if brute is not None and brute != crit[0]:
        bad.append(f"{spec}: level criterion {crit[0]} vs oracle level* {brute}")
    if crit[0] and not unimodal:
        bad.append(f"{spec}: level criterion holds but delta {dv.delta} is not unimodal")
    return bad


def _veronese_canonical(req, res):
    spec, _P = req
    dv, unimodal, normal, crit = res
    return spec.n, spec.a, spec.c, dv.counts, dv.delta, unimodal, normal, crit


def _veronese_shapes(reqs, results):
    return [("level criterion holds", sum(1 for r in results if r[3][0])),
            ("dimension 4", sum(1 for spec, _P in reqs if spec.n == 4))]


WORKLOADS = {
    "analyze": Workload(
        "analyze", 1 + len(ANALYZE_LARGE[1]), ANALYZE_POOL_PER_S, _analyze_stream,
        _analyze_warmup, _analyze_serve, _analyze_check, _analyze_canonical, _analyze_shapes),
    "labeling-search": Workload(
        "labeling-search", 2 * len(LABEL_BIPARTITE), LABEL_POOL_PER_S, _label_stream,
        _label_warmup, _label_serve, _label_check, _label_canonical, _label_shapes),
    "veronese-ehrhart": Workload(
        "veronese-ehrhart", 2 + VERONESE_C[1] - VERONESE_C[0], VERONESE_POOL_PER_S,
        _veronese_stream, _veronese_warmup, _veronese_serve, _veronese_check,
        _veronese_canonical, _veronese_shapes),
}


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
