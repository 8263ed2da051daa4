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
from .graphs import graph, is_tree
from .lattice import (
    DEFAULT_NODE_BUDGET,
    count_lattice_points,
    delta_vector,
    is_unimodal,
    lattice_points,
    pseudo_gorenstein_star,
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


def _graph_bases(args):
    """(G, c, bases) of the graph file; `enumerate_bases` checks c against G."""
    G, c = _load_graph(args.graph_file, args.c)
    if c is None:
        raise ValueError("no bound vector: add a 'c' field to the graph file or pass --c")
    return G, c, enumerate_bases(G, c, candidate_cap=args.budget)


def _veronese_from_flag(text: str) -> VeroneseSpec:
    vals = _parse_int_list(text)
    if len(vals) < 2:
        raise ValueError("--veronese needs a,c1,...,cn")
    return VeroneseSpec(n=len(vals) - 1, a=vals[0], c=vals[1:])


def _polytope(args) -> HPolytope:
    if args.veronese:
        return veronese_polytope(_veronese_from_flag(args.veronese))
    if not args.graph_file:
        raise ValueError("need a graph file or --veronese a,c1,...,cn")
    return facets(_graph_bases(args)[2])


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
    return 1 if args.strict and not verdict else 0


# --- subcommands ----------------------------------------------------------

def cmd_analyze(args) -> int:
    G, c, B = _graph_bases(args)
    P = facets(B)
    rep = analyze_polytope(P, budget=args.budget)
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
        f"int* degree: {rep.int_star_degree} (scan stopped at level {rep.scan_bound})",
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
    verdict, wit = level_star(P, budget=args.budget)
    witness = None if wit is None else {"level": wit[0], "point": list(wit[1])}
    payload = {"level": verdict, "witness": witness}
    lines = [f"level*: {verdict}"] + ([f"witness: level {wit[0]}, point {list(wit[1])}"] if wit else [])
    _emit(args, payload, lines)
    return _strict_exit(args, verdict)


def cmd_psg(args) -> int:
    P = _polytope(args)
    count = count_lattice_points(P, 1, "interior", budget=args.budget)
    verdict = pseudo_gorenstein_star(P)
    reflexive = reflexive_up_to_translation(P) if verdict else None
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
    rep = analyze_polytope(P, budget=args.budget)
    payload = {"int_star_degree": rep.int_star_degree, "scan_bound_used": rep.scan_bound}
    _emit(args, payload, [f"int* degree: {rep.int_star_degree}"])
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
    d = int_star_degree(P, budget=args.budget)
    if ok != (d == 1):  # two independent routes must agree
        raise RuntimeError(f"criterion {ok} contradicts int* degree {d}")
    # a valid spec with uniform bounds meets the formula's hypotheses
    formula = veronese_uniform_formula(spec.n, c[0], spec.a) if len(set(c)) == 1 else None
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
    lines.append(f"int* degree: {d}")
    _emit(args, payload, lines)
    return _strict_exit(args, ok)


def cmd_bipartite(args) -> int:
    for flag, size in (("--m", args.m), ("--n", args.n)):
        if size < 1:
            raise ValueError(f"{flag} must be at least 1")
    c = _parse_int_list(args.c)
    if len(c) != args.m + args.n:
        raise ValueError(f"expected {args.m + args.n} bounds, got {len(c)}")
    if min(c) < 1:
        raise ValueError("--c bounds must be at least 1")
    m, n, wit = args.m, args.n, None
    if sum(c[:m]) == sum(c[m:]):
        mode, sides = "box", "equal side sums: the hull is the plain box"
        nonempty = ok = all(ci >= 2 for ci in c)
    else:
        spec = bipartite_spec(m, n, c)
        mode, m, n, c = "criterion", spec.m, spec.n, spec.c
        sides = f"normalized sides: heavy m={m}, small n={n}, bounds {list(c)}"
        nonempty = bipartite_interior_nonempty(spec)
        ok, wit = bipartite_level_criterion(spec) if nonempty else (False, None)
    payload = {
        "mode": mode,
        "m": m,
        "n": n,
        "c": list(c),
        "interior_nonempty": nonempty,
        "level": ok,
        "violating_subset": None if wit is None else list(wit[1]),
        "violated_condition": None if wit is None else wit[0],
    }
    lines = [sides, f"interior nonempty: {nonempty}", f"level*: {ok}"]
    if wit is not None:
        lines.append(f"violating subset: {list(wit[1])} (condition {wit[0]})")
    _emit(args, payload, lines)
    return _strict_exit(args, ok)


def cmd_tree_check(args) -> int:
    G, _c = _load_graph(args.graph_file, None)
    if not is_tree(G):
        raise ValueError("input graph is not a tree")
    verdict = tree_labeling_pseudo_gorenstein(G)
    _emit(args, {"labeling_pseudo_gorenstein": verdict},
          [f"labeling pseudo-Gorenstein* (leaf-distance rule): {verdict}"])
    return _strict_exit(args, verdict)


def cmd_search_labeling(args) -> int:
    G, _c = _load_graph(args.graph_file, None)
    found = search_labeling(G, args.cmax, candidate_cap=args.budget)
    payload = {"cmax": args.cmax, "found": found is not None,
               "c": None if found is None else list(found)}
    lines = [f"witness bound vector: {list(found)}" if found
             else f"no witness with entries up to {args.cmax}"]
    _emit(args, payload, lines)
    return _strict_exit(args, found is not None)


def cmd_sweep_veronese(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
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


def cmd_verify(_args) -> int:
    results = run_suite(report=print)
    return 0 if all(r.passed for r in results) else 1


# --- parser ---------------------------------------------------------------

def _budget(text: str) -> int:
    """The value of --budget, rejected by that name unless an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _parent(*names, **kwargs) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylevel",
        description="Levelness and reflexivity diagnostics for hull polytopes of "
                    "degree-bounded edge multisets.",
    )
    parser.add_argument("--version", action="version", version=f"polylevel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes exactly the options its handler reads
    as_json = _parent("--json", action="store_true", help="canonical JSON output")
    budget = _parent("--budget", type=_budget, default=DEFAULT_NODE_BUDGET,
                     help="work cap for enumerations (default %(default)s)")
    strict = _parent("--strict", action="store_true",
                     help="exit 1 when the main verdict is negative")
    graph_arg = _parent("graph_file", help="JSON graph file {n, edges, c?}")
    bounds = _parent("--c", help="bound vector c1,...,cn (overrides the file)")
    poly = argparse.ArgumentParser(add_help=False, parents=[bounds])
    poly.add_argument("graph_file", nargs="?", help="JSON graph file {n, edges, c?}")
    poly.add_argument("--veronese", metavar="a,c1,...,cn",
                      help="use the box-and-cutoff polytope instead of a graph")

    def command(name, parents, func, help_text):
        # no abbreviations, so that no option answers to a prefix of another
        p = sub.add_parser(name, parents=parents, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    command("analyze", [as_json, budget, strict, graph_arg, bounds], cmd_analyze,
            "full report: facets, verdicts, delta vector")
    command("facets", [as_json, budget, poly], cmd_facets, "irredundant facet system")
    command("delta-vector", [as_json, budget, poly], cmd_delta_vector, "Ehrhart delta vector")
    command("level", [as_json, budget, strict, poly], cmd_level, "level* verdict")
    command("psg", [as_json, budget, strict, poly], cmd_psg, "pseudo-Gorenstein* verdict")
    command("int-star-degree", [as_json, budget, poly], cmd_int_star_degree,
            "int* degree")
    p = command("reduced-degree", [as_json, budget, poly], cmd_reduced_degree,
                "reduced degree of an interior point of a dilate")
    p.add_argument("--point", required=True, metavar="p1,...,pn")
    p.add_argument("--level", required=True, type=int, metavar="N")
    p = command("veronese", [as_json, budget, strict], cmd_veronese,
                "subset criterion, uniform-bound formula and int* degree of a box-and-cutoff polytope")
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--c", required=True, metavar="c1,...,cn")
    p = command("bipartite", [as_json, strict], cmd_bipartite,
                "interior and levelness verdicts for complete bipartite bounds")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--c", required=True, metavar="c1,...,cm+n")
    command("tree-check", [as_json, strict, graph_arg], cmd_tree_check,
            "leaf-distance rule for trees")
    p = command("search-labeling", [as_json, budget, strict, graph_arg], cmd_search_labeling,
                "first bound vector making the hull pseudo-Gorenstein*")
    p.add_argument("--cmax", required=True, type=int)
    p = command("sweep-veronese", [as_json, budget], cmd_sweep_veronese,
                "int* degrees over box-and-cutoff parameters (exploratory)")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--cmax", required=True, type=int)
    command("verify", [], cmd_verify, "run the reference-instance verification suite")
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
