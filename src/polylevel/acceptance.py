"""Reference-instance verification suite.

Fourteen named checks pin the library to independently computed facts:
worked instances with known facet systems, verdicts and witnesses, the
closed-form criteria cross-validated against the direct polytope
computations on exhaustive-or-sampled families, and the naive oracle as
referee.  `run_suite` executes all of them and reports one pass/fail line
each; the CLI `verify` subcommand and the test suite both drive it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from . import (
    BipartiteSpec,
    VeroneseSpec,
    bipartite_interior_nonempty,
    bipartite_level_criterion,
    complete,
    complete_bipartite,
    conjecture_spectrum,
    count_lattice_points,
    cycle,
    delta_vector,
    divisor_set,
    enumerate_bases,
    facets,
    int_star_degree,
    is_unimodal,
    lattice_points,
    level_star,
    membership,
    path,
    pseudo_gorenstein_star,
    reduced_degree,
    reflexive_up_to_translation,
    search_labeling,
    star,
    star_prism,
    tree_from_parents,
    tree_labeling_pseudo_gorenstein,
    trees,
    veronese_level_criterion,
    veronese_polytope,
    veronese_uniform_formula,
)
from .criteria import dilation_containment
from .lattice import _normality_scan
from .oracle import brute_bases, brute_count, brute_volume


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    description: str
    passed: bool
    detail: str


def _check(cond: bool, msg: str, failures: list[str]) -> None:
    if not cond:
        failures.append(msg)


def hull_polytope(G, c):
    return facets(enumerate_bases(G, c))


def criterion_01() -> tuple[bool, str]:
    """path(3), bounds (2,3,2): exact facet system, level, degree one."""
    failures: list[str] = []
    P = hull_polytope(path(3), (2, 3, 2))
    want = (((1,), 2), ((2,), 3), ((3,), 2), ((1, 3), 3))
    _check(P.upper_facets == want, f"facets {P.upper_facets} != {want}", failures)
    lv, wit = level_star(P)
    _check(lv and wit is None, f"expected level, got {lv} witness {wit}", failures)
    _check(int_star_degree(P) == 1, "int* degree should be 1", failures)
    return not failures, "; ".join(failures) or "facets/level/degree all exact"


def criterion_02() -> tuple[bool, str]:
    """K(3,4), all bounds 2: unique interior point, not reflexive, level fails at 2."""
    failures: list[str] = []
    P = hull_polytope(complete_bipartite(3, 4), (2,) * 7)
    inner = lattice_points(P, 1, "interior")
    _check(inner == [(1,) * 7], f"interior {inner}", failures)
    _check(pseudo_gorenstein_star(P), "should be pseudo-Gorenstein*", failures)
    _check(reflexive_up_to_translation(P) is False, "should not be reflexive", failures)
    _check(((4, 5, 6, 7), 6) in P.upper_facets, "heavy-side facet bound 6 missing", failures)
    lv, wit = level_star(P)
    _check(not lv and wit is not None and wit[0] == 2,
           f"expected failure at level 2, got {lv} {wit}", failures)
    if wit is not None:
        rem = tuple(x - 1 for x in wit[1])
        _check(not membership(P, rem, 1, "full"),
               f"witness remainder {rem} unexpectedly inside the hull", failures)
    _check(membership(P, (3, 3, 3, 3, 3, 3, 2), 2, "interior"),
           "(3,3,3,3,3,3,2) should be interior at level 2", failures)
    _check(not membership(P, (2, 2, 2, 2, 2, 2, 1), 1, "full"),
           "(2,2,2,2,2,2,1) should fall outside the hull", failures)
    return not failures, "; ".join(failures) or "interior/reflexivity/witness all exact"


def criterion_03() -> tuple[bool, str]:
    """triangle, bounds (1,1,1): full-sum facet, strict dilation gap, doubled cube."""
    failures: list[str] = []
    T = cycle(3)
    P = hull_polytope(T, (1, 1, 1))
    _check(((1, 2, 3), 2) in P.upper_facets, "facet x1+x2+x3 <= 2 missing", failures)
    holds, strict = dilation_containment(T, (1, 1, 1), 2)
    _check(holds and strict, f"dilation containment gave ({holds}, {strict})", failures)
    P2 = hull_polytope(T, (2, 2, 2))
    _check(P2.upper_facets == (((1,), 2), ((2,), 2), ((3,), 2)),
           f"doubled-bound hull {P2.upper_facets} is not the cube", failures)
    return not failures, "; ".join(failures) or "facet/dilation/cube all exact"


def criterion_04() -> tuple[bool, str]:
    """bound search on K(m,n), m,n <= 5: witness exists iff n <= m <= 2n-1, and is all twos."""
    failures: list[str] = []
    for m in range(1, 6):
        for n in range(1, m + 1):
            found = search_labeling(complete_bipartite(m, n), 2)
            expect = n <= m <= 2 * n - 1
            if expect:
                _check(found == (2,) * (m + n), f"K({m},{n}): witness {found}", failures)
            else:
                _check(found is None, f"K({m},{n}): unexpected witness {found}", failures)
    return not failures, "; ".join(failures) or "all 15 side-size pairs classified correctly"


def _bipartite_specs(total: int, cmax: int) -> list[BipartiteSpec]:
    out = []
    for m in range(1, total):
        n = total - m
        for c in itertools.product(range(1, cmax + 1), repeat=total):
            try:
                spec = BipartiteSpec(m, n, c)
            except ValueError:
                continue
            if bipartite_interior_nonempty(spec):
                out.append(spec)
    return out


def criterion_05() -> tuple[bool, str]:
    """bipartite subset criterion == direct levelness on 1400+ specs."""
    failures: list[str] = []
    specs = []
    for total in (3, 4, 5, 6):
        specs.extend(_bipartite_specs(total, 4))
    specs.extend(_bipartite_specs(7, 4)[::16])
    for spec in specs:
        P = hull_polytope(complete_bipartite(spec.m, spec.n), spec.c)
        direct, _ = level_star(P)
        crit, x = bipartite_level_criterion(spec)
        if direct != crit:
            failures.append(f"{spec}: direct {direct} vs criterion {crit} (X={x})")
    detail = f"{len(specs)} specs, all agree" if not failures else "; ".join(failures[:3])
    return len(specs) >= 200 and not failures, detail


def _veronese_specs(n: int, cmax: int) -> list[VeroneseSpec]:
    out = []
    for c in itertools.combinations_with_replacement(range(cmax, 1, -1), n):
        for a in range(max(c[0] + 1, n + 1), sum(c)):
            out.append(VeroneseSpec(n=n, a=a, c=c))
    return out


def criterion_06() -> tuple[bool, str]:
    """Veronese subset criterion == direct levelness == star prism levelness."""
    failures: list[str] = []
    count = 0
    for n in (2, 3, 4):
        for spec in _veronese_specs(n, 4):
            crit, _ = veronese_level_criterion(spec)
            direct, _ = level_star(veronese_polytope(spec))
            prism, _ = level_star(star_prism(spec))
            if not crit == direct == prism:
                failures.append(f"{spec}: criterion {crit} direct {direct} prism {prism}")
            count += 1
    detail = f"{count} specs, all three routes agree" if not failures else "; ".join(failures[:3])
    return not failures, detail


def criterion_07() -> tuple[bool, str]:
    """uniform bounds: interval formula == subset criterion; c=2 iff a=n+1; midpoints level."""
    failures: list[str] = []
    for n in range(3, 9):
        for a in range(n + 1, 2 * n):
            f = veronese_uniform_formula(n, 2, a)
            crit, _ = veronese_level_criterion(VeroneseSpec(n=n, a=a, c=(2,) * n))
            _check(f == crit == (a == n + 1), f"c=2, n={n}, a={a}: {f}/{crit}", failures)
    for n in range(3, 8):
        for c in (2, 3, 4):
            a = (n // 2) * c + 1 if n % 2 == 0 else ((n + 1) // 2) * c
            _check(veronese_uniform_formula(n, c, a),
                   f"midpoint a={a} (n={n}, c={c}) not level", failures)
    checked = 0
    for n in range(1, 8):
        for c in range(2, 6):
            for a in range(max(c + 1, n + 1), n * c):
                f = veronese_uniform_formula(n, c, a)
                crit, _ = veronese_level_criterion(VeroneseSpec(n=n, a=a, c=(c,) * n))
                if f != crit:
                    failures.append(f"DISAGREEMENT n={n} c={c} a={a}: formula {f} criterion {crit}")
                checked += 1
    detail = f"{checked} uniform specs, formula == criterion" if not failures else "; ".join(failures[:3])
    return not failures, detail


def criterion_08() -> tuple[bool, str]:
    """bounds (3,3,2,2,2): no full-sum cutoff in 6..11 is level."""
    failures: list[str] = []
    for a in range(6, 12):
        ok, _ = veronese_level_criterion(VeroneseSpec(n=5, a=a, c=(3, 3, 2, 2, 2)))
        _check(not ok, f"a={a} unexpectedly level", failures)
    return not failures, "; ".join(failures) or "all six cutoffs fail, as computed"


def criterion_09() -> tuple[bool, str]:
    """box (5,3,3,3) cut at 6: reduced degrees 2 and 3, int* degree 3, full spectrum."""
    failures: list[str] = []
    Q = veronese_polytope(VeroneseSpec(n=4, a=6, c=(5, 3, 3, 3)))
    _check(reduced_degree(Q, (8, 1, 1, 1), 2) == 2, "(8,1,1,1) at level 2", failures)
    _check(reduced_degree(Q, (14, 1, 1, 1), 3) == 3, "(14,1,1,1) at level 3", failures)
    _check(int_star_degree(Q) == 3, "int* degree should be 3", failures)
    _check(conjecture_spectrum(Q), "degrees 1,2 should both be realized", failures)
    return not failures, "; ".join(failures) or "reduced degrees, degree and spectrum exact"


def criterion_10() -> tuple[bool, str]:
    """box (n,2,...,2) cut at n+1: int* degree n-1 with full spectrum, n=3,4,5."""
    failures: list[str] = []
    for n in (3, 4, 5):
        Q = veronese_polytope(VeroneseSpec(n=n, a=n + 1, c=(n,) + (2,) * (n - 1)))
        d = int_star_degree(Q)
        _check(d == n - 1, f"n={n}: degree {d} != {n - 1}", failures)
        _check(conjecture_spectrum(Q), f"n={n}: spectrum incomplete", failures)
    return not failures, "; ".join(failures) or "degrees n-1 and spectra confirmed"


def _tree_catalog():
    """All 24 trees up to isomorphism with 2 to 7 vertices (`graphs.trees`)."""
    return [T for n in range(2, 8) for T in trees(n)]


def criterion_11() -> tuple[bool, str]:
    """trees to 7 vertices: leaf-distance rule == bound search; paths pass iff n != 3."""
    failures: list[str] = []
    cat = _tree_catalog()
    for T in cat:
        rule = tree_labeling_pseudo_gorenstein(T)
        found = search_labeling(T, 2)
        if rule != (found is not None):
            failures.append(f"tree {sorted(T.edges)}: rule {rule}, search {found}")
        elif rule:
            P = hull_polytope(T, (2,) * T.n)
            if not pseudo_gorenstein_star(P):
                failures.append(f"tree {sorted(T.edges)}: all-twos bound not a witness")
    for n in range(2, 11):
        _check(tree_labeling_pseudo_gorenstein(path(n)) == (n != 3),
               f"path({n}) misclassified", failures)
    detail = f"{len(cat)} trees, rule == search" if not failures else "; ".join(failures[:3])
    return len(cat) == 24 and not failures, detail


def _oracle_sweep_cases():
    """Deterministic graph/bound sample: >= 500 cases over the small families."""
    families = (
        [path(n) for n in range(2, 7)]
        + [cycle(n) for n in range(3, 7)]
        + [star(n) for n in range(1, 6)]
        + [complete(n) for n in range(2, 7)]
        + [complete_bipartite(m, n) for m in range(1, 6) for n in range(m, 6) if m + n <= 6]
    )
    rng = random.Random(0)
    for G in families:
        cs = list(itertools.product((1, 2, 3), repeat=G.n))
        if G.n <= 4:
            chosen = cs
        else:
            chosen = rng.sample(cs, 40 if G.n == 5 else 20)
        for c in chosen:
            yield G, c


def criterion_12() -> tuple[bool, str]:
    """naive edge-multiset oracle == production pipeline; hull points == divisors."""
    failures: list[str] = []
    cases = 0
    for G, c in _oracle_sweep_cases():
        d, bb = brute_bases(G, c)
        B = enumerate_bases(G, c)
        if not (d == B.delta_c and tuple(bb) == B.bases):
            failures.append(f"n={G.n} edges={sorted(G.edges)} c={c}")
            continue
        P = facets(B)
        if lattice_points(P, 1, "full") != divisor_set(B):
            failures.append(f"H-points != divisors at n={G.n} c={c}")
        cases += 1
    detail = f"{cases} cases, oracle and pipeline agree" if not failures else "; ".join(failures[:3])
    return cases >= 500 and not failures, detail


def _delta_catalog():
    cube4 = facets(enumerate_bases(complete_bipartite(2, 2), (2, 2, 2, 2)))
    return [
        ("path3-hull", hull_polytope(path(3), (2, 3, 2))),
        ("triangle-hull", hull_polytope(cycle(3), (1, 1, 1))),
        ("cube-side-2", cube4),
        ("veronese-5333-at-6", veronese_polytope(VeroneseSpec(n=4, a=6, c=(5, 3, 3, 3)))),
        ("veronese-222-at-4", veronese_polytope(VeroneseSpec(n=3, a=4, c=(2, 2, 2)))),
        ("star-prism-22-at-3", star_prism(VeroneseSpec(n=2, a=3, c=(2, 2)))),
    ]


def criterion_13() -> tuple[bool, str]:
    """Ehrhart sanity: coefficient identities, exact volumes, unimodal when level.

    For n <= 4 the counts at levels 1 and 2 are also refereed by a flat scan.
    """
    failures: list[str] = []
    for name, P in _delta_catalog():
        dv = delta_vector(P)
        _check(dv.delta[0] == 1, f"{name}: delta_0", failures)
        _check(dv.delta[1] == dv.counts[1] - (P.n + 1), f"{name}: delta_1", failures)
        _check(dv.delta[P.n] == count_lattice_points(P, 1, "interior"),
               f"{name}: delta_n vs interior", failures)
        _check(all(d >= 0 for d in dv.delta), f"{name}: negative entry", failures)
        if P.n <= 4:
            for N in (1, 2):
                got, want = dv.counts[N], brute_count(P, N)
                _check(got == want, f"{name}: count {got} != {want} at level {N}", failures)
            vol = brute_volume(P)
            _check(dv.normalized_volume == vol,
                   f"{name}: delta sum {dv.normalized_volume} != volume {vol}", failures)
        if level_star(P)[0]:
            _check(is_unimodal(dv), f"{name}: level but delta {dv.delta} not unimodal", failures)
    cube = _delta_catalog()[2][1]
    _check(delta_vector(cube).delta == (1, 76, 230, 76, 1), "cube delta vector", failures)
    for n in (2, 3, 4):
        for spec in _veronese_specs(n, 3):
            P = veronese_polytope(spec)
            if level_star(P)[0]:
                _check(is_unimodal(delta_vector(P)),
                       f"level Veronese {spec} with non-unimodal delta", failures)
    return not failures, "; ".join(failures[:4]) or "all identities, volumes and unimodality hold"


def criterion_14() -> tuple[bool, str]:
    """every catalog polytope decomposes its dilates (levels 2 and 3).

    By the scan: `normality_check` answers laminar systems by theorem.
    """
    failures: list[str] = []
    catalog = _delta_catalog()
    catalog.append(("k34-hull", hull_polytope(complete_bipartite(3, 4), (2,) * 7)))
    catalog.append(("spider-hull", hull_polytope(tree_from_parents((1, 1, 1, 2, 3, 4)), (2,) * 7)))
    for total in (4, 5):
        for spec in _bipartite_specs(total, 3)[::7]:
            catalog.append((f"bipartite-{spec.m}-{spec.n}-{spec.c}",
                            hull_polytope(complete_bipartite(spec.m, spec.n), spec.c)))
    for n in (2, 3):
        for spec in _veronese_specs(n, 3)[::3]:
            catalog.append((f"veronese-{spec.a}-{spec.c}", veronese_polytope(spec)))
    for name, P in catalog:
        ok, wit = _normality_scan(P, 3)
        _check(ok, f"{name}: point {wit} does not decompose", failures)
    detail = f"{len(catalog)} polytopes decompose up to level 3 by enumeration" if not failures else "; ".join(failures[:3])
    return not failures, detail


CRITERIA: list[tuple[str, str, Callable[[], tuple[bool, str]]]] = [
    ("A01", "path(3) bounds (2,3,2): facet system, level, int* degree", criterion_01),
    ("A02", "K(3,4) all-twos: interior, reflexivity, level failure witness", criterion_02),
    ("A03", "triangle bounds (1,1,1): full-sum facet and strict dilation gap", criterion_03),
    ("A04", "bound search over K(m,n), m,n <= 5, matches side-size rule", criterion_04),
    ("A05", "bipartite subset criterion == direct levelness (1400+ specs)", criterion_05),
    ("A06", "Veronese criterion == direct == star prism (n <= 4)", criterion_06),
    ("A07", "uniform interval formula == criterion; c=2 and midpoint rules", criterion_07),
    ("A08", "bounds (3,3,2,2,2): no cutoff 6..11 is level", criterion_08),
    ("A09", "box (5,3,3,3) cut at 6: reduced degrees 2/3, int* degree 3", criterion_09),
    ("A10", "box (n,2,..,2) cut at n+1: int* degree n-1, full spectrum", criterion_10),
    ("A11", "trees to 7 vertices: leaf-distance rule == bound search", criterion_11),
    ("A12", "naive oracle == pipeline on 500+ graph/bound cases", criterion_12),
    ("A13", "Ehrhart identities, exact volumes, unimodality when level", criterion_13),
    ("A14", "dilate decomposition (normality) across the catalog", criterion_14),
]


def run_suite(report=print) -> list[CriterionResult]:
    results = []
    for cid, desc, fn in CRITERIA:
        ok, detail = fn()
        results.append(CriterionResult(cid, desc, ok, detail))
        if report is not None:
            report(f"[{'PASS' if ok else 'FAIL'}] {cid} {desc}: {detail}")
    return results
