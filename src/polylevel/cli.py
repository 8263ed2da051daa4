"""Command-line front end: verdict subcommands and deterministic JSON reports.

Graph input files are UTF-8 JSON documents

    {"n": 3, "edges": [[1, 2], [2, 3]], "c": [2, 3, 2]}

with 1-based vertex pairs; `c` may instead come from the --c flag.
Machine output (--json) is canonical: sorted keys, sorted point lists,
byte-identical across runs for the same input and version.

Exit codes: 0 success, 1 negative verdict under --strict (and any failing
verification suite), 2 input error, 3 work budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .acceptance import _veronese_specs, run_suite
from .bounded import enumerate_bases
from .criteria import (
    bipartite_interior_nonempty,
    bipartite_level_criterion,
    bipartite_spec,
    search_labeling,
    tree_labeling_pseudo_gorenstein,
    veronese_level_criterion,
    veronese_uniform_formula,
)
from .errors import BudgetExceededError
from .graphs import Graph, graph, is_tree
from .lattice import (
    DEFAULT_NODE_BUDGET,
    count_lattice_points,
    delta_vector,
    is_unimodal,
    lattice_points,
    reflexive_up_to_translation,
)
from .levelness import (
    analyze_polytope,
    int_star_degree,
    level_star,
    reduced_degree,
)
from .polymatroid import HPolytope, VeroneseSpec, facets, veronese_polytope


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _load_graph(path: str, c_flag: str | None):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read graph file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ValueError(f"graph file {path} must contain fields 'n' and 'edges'")
    n, edges, c = doc["n"], doc["edges"], doc.get("c")
    if not _json_ints([n]):
        raise ValueError(f"graph file {path}: 'n' must be an integer")
    if not (isinstance(edges, list) and all(_json_ints(e) and len(e) == 2 for e in edges)):
        raise ValueError(f"graph file {path}: 'edges' must be a list of integer pairs")
    if c_flag is not None:
        c = _parse_int_list(c_flag)
    elif c is not None:
        if not _json_ints(c):
            raise ValueError(f"graph file {path}: 'c' must be a list of integers")
        c = tuple(c)
    return graph(n, edges), c


def _json_ints(v) -> bool:
    """Is v a JSON array of integers (true and false are not)?"""
    return isinstance(v, list) and all(type(x) is int for x in v)


def _require_bounds(G: Graph, c) -> tuple[int, ...]:
    if c is None:
        raise ValueError("no bound vector: add a 'c' field to the graph file or pass --c")
    if len(c) != G.n:
        raise ValueError(f"bound vector has length {len(c)}, graph has {G.n} vertices")
    return tuple(c)


def _veronese_from_flag(text: str) -> VeroneseSpec:
    vals = _parse_int_list(text)
    if len(vals) < 2:
        raise ValueError("--veronese needs a,c1,...,cn")
    return VeroneseSpec(n=len(vals) - 1, a=vals[0], c=vals[1:])


def _polytope(args) -> HPolytope:
    if getattr(args, "veronese", None):
        return veronese_polytope(_veronese_from_flag(args.veronese))
    if not getattr(args, "graph_file", None):
        raise ValueError("need a graph file or --veronese a,c1,...,cn")
    G, c = _load_graph(args.graph_file, args.c)
    return facets(enumerate_bases(G, _require_bounds(G, c), candidate_cap=args.budget))


def _facets_json(P: HPolytope) -> list[dict]:
    return [{"subset": list(A), "bound": t} for A, t in P.upper_facets]


def _facet_text(A, t) -> str:
    return " + ".join(f"x{i}" for i in A) + f" <= {t}"


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for line in human_lines:
            print(line)


def _strict_exit(args, verdict: bool) -> int:
    return 0 if verdict or not getattr(args, "strict", False) else 1


# --- subcommands ----------------------------------------------------------

def cmd_analyze(args) -> int:
    G, c = _load_graph(args.graph_file, args.c)
    c = _require_bounds(G, c)
    B = enumerate_bases(G, c, candidate_cap=args.budget)
    P = facets(B)
    rep = analyze_polytope(P, max_level=args.max_level, budget=args.budget)
    dv = delta_vector(P, budget=args.budget)
    interior = lattice_points(P, 1, "interior", budget=args.budget)
    witness = None
    if rep.failure_witness is not None:
        lvl, pt, why = rep.failure_witness
        witness = {"level": lvl, "point": list(pt), "explanation": why}
    payload = {
        "delta_c": B.delta_c,
        "num_bases": len(B.bases),
        "facets": _facets_json(P),
        "interior_points_n1": [list(p) for p in interior],
        "pseudo_gorenstein": rep.pseudo_gorenstein,
        "level": rep.level,
        "int_star_degree": rep.int_star_degree,
        "reflexive_up_to_translation": rep.reflexive_up_to_translation,
        "delta_vector": list(dv.delta),
        "unimodal": is_unimodal(dv),
        "witness": witness,
        "scan_bound_used": rep.scan_bound,
    }
    lines = [
        f"graph: {G.n} vertices, {len(G.edges)} edges, bounds {list(c)}",
        f"delta_c = {B.delta_c}, bases: {len(B.bases)}",
        "facets: " + "; ".join(_facet_text(A, t) for A, t in P.upper_facets),
        f"interior points (level 1): {[list(p) for p in interior]}",
        f"pseudo-Gorenstein*: {rep.pseudo_gorenstein}",
        f"level*: {rep.level}" + (f"  [witness at level {witness['level']}: {witness['point']}]" if witness else ""),
        f"int* degree: {rep.int_star_degree} (scan bound {rep.scan_bound})",
        f"reflexive up to translation: {rep.reflexive_up_to_translation}",
        f"delta vector: {list(dv.delta)} (unimodal: {is_unimodal(dv)})",
    ]
    _emit(args, payload, lines)
    return _strict_exit(args, rep.level)


def cmd_facets(args) -> int:
    P = _polytope(args)
    payload = {"n": P.n, "facets": _facets_json(P)}
    lines = [_facet_text(A, t) for A, t in P.upper_facets]
    lines += [f"x{i} >= 0" for i in range(1, P.n + 1)]
    _emit(args, payload, lines)
    return 0


def cmd_delta_vector(args) -> int:
    P = _polytope(args)
    dv = delta_vector(P, budget=args.budget)
    payload = {
        "n": dv.n,
        "counts": list(dv.counts),
        "delta_vector": list(dv.delta),
        "normalized_volume": dv.normalized_volume,
        "unimodal": is_unimodal(dv),
    }
    lines = [
        f"counts i(P, N), N = 0..{dv.n}: {list(dv.counts)}",
        f"delta vector: {list(dv.delta)}",
        f"normalized volume (sum): {dv.normalized_volume}",
        f"unimodal: {is_unimodal(dv)}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_level(args) -> int:
    P = _polytope(args)
    verdict, wit = level_star(P, max_level=args.max_level, budget=args.budget)
    witness = None if wit is None else {"level": wit[0], "point": list(wit[1])}
    payload = {"level": verdict, "witness": witness}
    lines = [f"level*: {verdict}"] + ([f"witness: level {wit[0]}, point {list(wit[1])}"] if wit else [])
    _emit(args, payload, lines)
    return _strict_exit(args, verdict)


def cmd_psg(args) -> int:
    P = _polytope(args)
    count = count_lattice_points(P, 1, "interior", budget=args.budget)
    verdict = count == 1
    reflexive = reflexive_up_to_translation(P, budget=args.budget) if verdict else None
    payload = {
        "interior_count": count,
        "pseudo_gorenstein": verdict,
        "reflexive_up_to_translation": reflexive,
    }
    lines = [
        f"interior lattice points: {count}",
        f"pseudo-Gorenstein*: {verdict}",
        f"reflexive up to translation: {reflexive}",
    ]
    _emit(args, payload, lines)
    return _strict_exit(args, verdict)


def cmd_int_star_degree(args) -> int:
    P = _polytope(args)
    d = int_star_degree(P, max_level=args.max_level, budget=args.budget)
    payload = {"int_star_degree": d, "scan_bound_used": args.max_level or max(1, P.n - 1)}
    _emit(args, payload, [f"int* degree: {d}"])
    return 0


def cmd_reduced_degree(args) -> int:
    P = _polytope(args)
    point = _parse_int_list(args.point)
    r = reduced_degree(P, point, args.level)
    payload = {"point": list(point), "level": args.level, "reduced_degree": r}
    _emit(args, payload, [f"reduced degree of {list(point)} at level {args.level}: {r}"])
    return 0


def cmd_veronese(args) -> int:
    c = _parse_int_list(args.c)
    spec = VeroneseSpec(n=len(c), a=args.a, c=c)
    ok, wit = veronese_level_criterion(spec)
    P = veronese_polytope(spec)
    d = int_star_degree(P, budget=args.budget) if args.degree else None
    if d is not None and ok != (d == 1):  # two independent routes must agree
        raise RuntimeError(f"criterion {ok} contradicts int* degree {d}")
    formula = None
    if args.formula and len(set(c)) == 1:
        formula = veronese_uniform_formula(spec.n, c[0], spec.a)
    payload = {
        "a": spec.a,
        "c": list(spec.c),
        "level_criterion": ok,
        "violating_subset": None if wit is None else list(wit[1]),
        "violated_condition": None if wit is None else wit[0],
        "uniform_formula": formula,
        "int_star_degree": d,
    }
    lines = [f"level* (subset criterion): {ok}"]
    if wit is not None:
        lines.append(f"violating subset: {list(wit[1])} (condition {wit[0]})")
    if formula is not None:
        lines.append(f"uniform interval formula: {formula}")
    if d is not None:
        lines.append(f"int* degree: {d}")
    _emit(args, payload, lines)
    return _strict_exit(args, ok)


def cmd_bipartite(args) -> int:
    c = _parse_int_list(args.c)
    if len(c) != args.m + args.n:
        raise ValueError(f"expected {args.m + args.n} bounds, got {len(c)}")
    left, right = sum(c[: args.m]), sum(c[args.m:])
    if left == right:
        nonempty = all(ci >= 2 for ci in c)
        payload = {
            "mode": "box",
            "m": args.m,
            "n": args.n,
            "c": list(c),
            "interior_nonempty": nonempty,
            "level": nonempty,
            "violating_subset": None,
        }
        lines = [
            "equal side sums: the hull is the plain box",
            f"interior nonempty: {nonempty}",
            f"level*: {nonempty}",
        ]
        _emit(args, payload, lines)
        return _strict_exit(args, nonempty)
    spec = bipartite_spec(args.m, args.n, c)
    nonempty = bipartite_interior_nonempty(spec)
    if nonempty:
        ok, wit = bipartite_level_criterion(spec)
    else:
        ok, wit = False, None
    payload = {
        "mode": "criterion",
        "m": spec.m,
        "n": spec.n,
        "c": list(spec.c),
        "interior_nonempty": nonempty,
        "level": ok,
        "violating_subset": None if wit is None else list(wit[1]),
        "violated_condition": None if wit is None else wit[0],
    }
    lines = [
        f"normalized sides: heavy m={spec.m}, small n={spec.n}, bounds {list(spec.c)}",
        f"interior nonempty: {nonempty}",
        f"level* (subset criterion): {ok}",
    ]
    if wit is not None:
        lines.append(f"violating subset: {list(wit[1])} (condition {wit[0]})")
    _emit(args, payload, lines)
    return _strict_exit(args, ok)


def cmd_tree_check(args) -> int:
    G, c = _load_graph(args.graph_file, args.c)
    if not is_tree(G):
        raise ValueError("input graph is not a tree")
    verdict = tree_labeling_pseudo_gorenstein(G)
    found = None
    if args.search is not None:
        found = search_labeling(G, args.search, candidate_cap=args.budget)
    payload = {
        "labeling_pseudo_gorenstein": verdict,
        "search_cmax": args.search,
        "search_witness": None if found is None else list(found),
    }
    lines = [f"labeling pseudo-Gorenstein* (leaf-distance rule): {verdict}"]
    if args.search is not None:
        lines.append(f"search up to c={args.search}: {'witness ' + str(list(found)) if found else 'no witness'}")
    _emit(args, payload, lines)
    return _strict_exit(args, verdict)


def cmd_search_labeling(args) -> int:
    G, _c = _load_graph(args.graph_file, args.c)
    found = search_labeling(G, args.cmax, candidate_cap=args.budget)
    payload = {"cmax": args.cmax, "found": found is not None,
               "c": None if found is None else list(found)}
    lines = [f"witness bound vector: {list(found)}" if found
             else f"no witness with entries up to {args.cmax}"]
    _emit(args, payload, lines)
    return _strict_exit(args, found is not None)


def cmd_sweep_veronese(args) -> int:
    rows = []
    degrees = set()
    for spec in _veronese_specs(args.n, args.cmax):
        d = int_star_degree(veronese_polytope(spec), budget=args.budget)
        degrees.add(d)
        rows.append({"a": spec.a, "c": list(spec.c), "int_star_degree": d})
    payload = {
        "n": args.n,
        "cmax": args.cmax,
        "degrees_found": sorted(degrees),
        "specs": rows,
        "note": "search bounded by cmax; absence of a degree here proves nothing",
    }
    lines = [f"dimension {args.n}, bounds up to {args.cmax}: {len(rows)} parameter choices",
             f"int* degrees found: {sorted(degrees)}"]
    if not args.json:
        for row in rows:
            lines.append(f"  a={row['a']:>3} c={row['c']}: degree {row['int_star_degree']}")
    _emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(report=print)
    return 0 if all(r.passed for r in results) else 1


# --- parser ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylevel",
        description="Levelness and reflexivity diagnostics for hull polytopes of "
                    "degree-bounded edge multisets.",
    )
    parser.add_argument("--version", action="version", version=f"polylevel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="canonical JSON output")
    common.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                        help="work cap for enumerations (default %(default)s)")
    common.add_argument("--strict", action="store_true",
                        help="exit 1 when the main verdict is negative")

    graphy = argparse.ArgumentParser(add_help=False)
    graphy.add_argument("graph_file", help="JSON graph file {n, edges, c?}")
    graphy.add_argument("--c", help="bound vector c1,...,cn (overrides the file)")

    poly = argparse.ArgumentParser(add_help=False)
    poly.add_argument("graph_file", nargs="?", help="JSON graph file {n, edges, c?}")
    poly.add_argument("--c", help="bound vector c1,...,cn (overrides the file)")
    poly.add_argument("--veronese", metavar="a,c1,...,cn",
                      help="use the box-and-cutoff polytope instead of a graph")

    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--max-level", type=int, default=None,
                      help="override the dilation scan bound (default max(2, n-1); "
                           "max(1, n-1) for int-star-degree)")

    p = sub.add_parser("analyze", parents=[common, graphy, scan],
                       help="full report: facets, verdicts, delta vector")
    p.set_defaults(func=cmd_analyze)
    p = sub.add_parser("facets", parents=[common, poly], help="irredundant facet system")
    p.set_defaults(func=cmd_facets)
    p = sub.add_parser("delta-vector", parents=[common, poly], help="Ehrhart delta vector")
    p.set_defaults(func=cmd_delta_vector)
    p = sub.add_parser("level", parents=[common, poly, scan], help="level* verdict")
    p.set_defaults(func=cmd_level)
    p = sub.add_parser("psg", parents=[common, poly], help="pseudo-Gorenstein* verdict")
    p.set_defaults(func=cmd_psg)
    p = sub.add_parser("int-star-degree", parents=[common, poly, scan], help="int* degree")
    p.set_defaults(func=cmd_int_star_degree)
    p = sub.add_parser("reduced-degree", parents=[common, poly],
                       help="reduced degree of an interior point of a dilate")
    p.add_argument("--point", required=True, metavar="p1,...,pn")
    p.add_argument("--level", required=True, type=int, metavar="N")
    p.set_defaults(func=cmd_reduced_degree)
    p = sub.add_parser("veronese", parents=[common],
                       help="subset criterion for a box-and-cutoff polytope")
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--c", required=True, metavar="c1,...,cn")
    p.add_argument("--formula", action="store_true",
                   help="also evaluate the uniform-bound interval formula")
    p.add_argument("--degree", action=argparse.BooleanOptionalAction, default=True,
                   help="compute the int* degree (on by default)")
    p.set_defaults(func=cmd_veronese)
    p = sub.add_parser("bipartite", parents=[common],
                       help="interior and levelness verdicts for complete bipartite bounds")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--c", required=True, metavar="c1,...,cm+n")
    p.set_defaults(func=cmd_bipartite)
    p = sub.add_parser("tree-check", parents=[common, graphy],
                       help="leaf-distance rule for trees, optional witness search")
    p.add_argument("--search", type=int, metavar="CMAX", default=None)
    p.set_defaults(func=cmd_tree_check)
    p = sub.add_parser("search-labeling", parents=[common, graphy],
                       help="first bound vector making the hull pseudo-Gorenstein*")
    p.add_argument("--cmax", required=True, type=int)
    p.set_defaults(func=cmd_search_labeling)
    p = sub.add_parser("sweep-veronese", parents=[common],
                       help="int* degrees over box-and-cutoff parameters (exploratory)")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--cmax", required=True, type=int)
    p.set_defaults(func=cmd_sweep_veronese)
    p = sub.add_parser("verify", parents=[common],
                       help="run the reference-instance verification suite")
    p.add_argument("--suite", choices=["paper"], default="paper",
                   help="suite name (the bundled reference-instance suite)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
