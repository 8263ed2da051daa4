import argparse
import json

import pytest

from polylevel import levelness
from polylevel.cli import _build_parser, main


@pytest.fixture
def path3_file(tmp_path):
    doc = {"n": 3, "edges": [[1, 2], [2, 3]], "c": [2, 3, 2]}
    p = tmp_path / "path3.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


@pytest.fixture
def k34_file(tmp_path):
    doc = {"n": 7, "edges": [[i, j] for i in (1, 2, 3) for j in (4, 5, 6, 7)],
           "c": [2] * 7}
    p = tmp_path / "k34.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.json"
    p.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}), encoding="utf-8")
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_report_fields(capsys, path3_file):
    code, doc = run_json(capsys, ["analyze", path3_file, "--json"])
    assert code == 0
    assert doc["delta_c"] == 3
    assert doc["num_bases"] == 2
    assert doc["level"] is True
    assert doc["int_star_degree"] == 1
    assert doc["pseudo_gorenstein"] is False
    assert doc["reflexive_up_to_translation"] is None
    assert doc["delta_vector"] == [1, 28, 32, 2]
    assert doc["unimodal"] is True
    assert doc["witness"] is None
    assert {"subset": [1, 3], "bound": 3} in doc["facets"]
    assert doc["scan_bound_used"] == 2
    assert sorted(map(tuple, doc["interior_points_n1"])) == [(1, 1, 1), (1, 2, 1)]


def test_analyze_deterministic_bytes(capsys, k34_file):
    main(["analyze", k34_file, "--json"])
    first = capsys.readouterr().out
    main(["analyze", k34_file, "--json"])
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["pseudo_gorenstein"] is True
    assert doc["level"] is False
    assert doc["witness"]["level"] == 2


def test_c_flag_overrides_file(capsys, path3_file):
    code, doc = run_json(capsys, ["facets", path3_file, "--c", "1,1,1", "--json"])
    assert code == 0
    assert doc["facets"] == [
        {"subset": [2], "bound": 1},
        {"subset": [1, 3], "bound": 1},
    ]


def test_delta_vector_veronese(capsys):
    code, doc = run_json(capsys, ["delta-vector", "--veronese", "4,2,2,2", "--json"])
    assert code == 0
    assert doc["delta_vector"][0] == 1
    assert doc["unimodal"] is True


def test_level_psg_degree_subcommands(capsys, k34_file):
    code, doc = run_json(capsys, ["level", k34_file, "--json"])
    assert code == 0 and doc["level"] is False and doc["witness"]["level"] == 2
    code, doc = run_json(capsys, ["psg", k34_file, "--json"])
    assert code == 0 and doc["pseudo_gorenstein"] is True
    assert doc["reflexive_up_to_translation"] is False
    code, doc = run_json(capsys, ["int-star-degree", "--veronese", "6,5,3,3,3", "--json"])
    assert code == 0 and doc["int_star_degree"] == 3 and doc["scan_bound_used"] == 4
    code, doc = run_json(capsys, [
        "reduced-degree", "--veronese", "6,5,3,3,3",
        "--point", "8,1,1,1", "--level", "2", "--json"])
    assert code == 0 and doc["reduced_degree"] == 2


def test_strict_exit_codes(path3_file, k34_file, capsys):
    assert main(["level", path3_file, "--strict"]) == 0
    assert main(["level", k34_file, "--strict"]) == 1
    capsys.readouterr()


def test_veronese_subcommand(capsys):
    code, doc = run_json(capsys, ["veronese", "--a", "6", "--c", "5,3,3,3", "--json"])
    assert code == 0
    assert doc["level_criterion"] is False
    assert doc["violating_subset"] == [2, 3, 4]
    assert doc["int_star_degree"] == 3
    assert doc["uniform_formula"] is None       # the bounds are not uniform
    code, doc = run_json(capsys, ["veronese", "--a", "4", "--c", "2,2,2", "--json"])
    assert doc["level_criterion"] is True and doc["uniform_formula"] is True
    assert doc["int_star_degree"] == 1


def test_bipartite_subcommand(capsys):
    code, doc = run_json(capsys, ["bipartite", "--m", "3", "--n", "4",
                                  "--c", "2,2,2,2,2,2,2", "--json"])
    assert code == 0
    assert doc["m"] == 4 and doc["n"] == 3      # normalized heavy side
    assert doc["interior_nonempty"] is True
    assert doc["level"] is False
    assert doc["violating_subset"] == [1, 2, 3, 4]
    keys = set(doc)
    code, doc = run_json(capsys, ["bipartite", "--m", "2", "--n", "2",
                                  "--c", "2,2,2,2", "--json"])
    assert doc["mode"] == "box" and doc["level"] is True
    assert set(doc) == keys and doc["violated_condition"] is None


def test_tree_check_and_search(capsys, p4_file):
    code, out = run_json(capsys, ["tree-check", p4_file, "--json"])
    assert code == 0
    assert out == {"labeling_pseudo_gorenstein": True}
    code, out = run_json(capsys, ["search-labeling", p4_file, "--cmax", "2", "--json"])
    assert code == 0 and out["c"] == [2, 2, 2, 2]


def test_tree_check_rejects_cycles(capsys, tmp_path):
    doc = {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}
    p = tmp_path / "c3.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["tree-check", str(p)]) == 2
    capsys.readouterr()


def test_sweep_veronese(capsys):
    code, doc = run_json(capsys, ["sweep-veronese", "--n", "3", "--cmax", "3", "--json"])
    assert code == 0
    assert 1 in doc["degrees_found"]
    assert all(1 <= row["int_star_degree"] <= 2 for row in doc["specs"])


def test_input_error_exit_codes(capsys, tmp_path):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2
    noc = tmp_path / "noc.json"
    noc.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}), encoding="utf-8")
    assert main(["analyze", str(noc)]) == 2   # no bound vector anywhere
    capsys.readouterr()


@pytest.mark.parametrize("command", ["analyze", "facets"])
def test_bound_vector_of_wrong_length_exits_2(capsys, path3_file, command):
    """A `--c` whose length is not the graph's vertex count is an input
    error, named by the library's check of the bound vector."""
    assert main([command, path3_file, "--c", "2,2"]) == 2
    assert "bound vector has length 2, graph has 3 vertices" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"n": 3, "edges": [1, 2], "c": [2, 2, 2]},
    {"n": 3, "edges": [[1, 2], [2, 3]], "c": 5},
    {"n": 3, "edges": [[1, 2], [2, 3.0]], "c": [2, 2, 2]},
    {"n": 3.5, "edges": [[1, 2], [2, 3]], "c": [2, 2, 2]},
    {"n": 3, "edges": [[1, 2], [2, 3]], "c": [2, 2, 2.5]},
    {"n": 3, "edges": [[1, 2], [2, 3]], "c": [2, 2, True]},
    {"n": 3, "edges": [[1, 2, 3], [2, 3]], "c": [2, 2, 2]},
], ids=["edge-not-a-pair", "c-not-a-list", "float-endpoint", "float-n",
        "float-bound", "bool-bound", "edge-triple"])
def test_malformed_graph_file_exits_2(capsys, tmp_path, doc):
    """A malformed graph file is an input error (exit 2), never a verdict."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2
    assert "graph file" in capsys.readouterr().err


def test_int_star_degree_rejects_max_level_1(capsys):
    """No subcommand takes a scan bound any more, as the scan stops where
    the degrees end: `--max-level` is an unknown option (exit 2) on each
    of the three that took it."""
    for argv in (["int-star-degree", "--veronese", "6,5,3,3,3"],
                 ["level", "--veronese", "6,5,3,3,3"],
                 ["analyze", "unread.json", "--c", "2,2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-level", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-level" in capsys.readouterr().err


def test_budget_below_one_is_an_input_error(capsys, p4_file):
    """Exit 2 (input error), not 3 (work budget exceeded), with the error
    named by the option the user typed, whatever the command passes the
    budget on to."""
    for argv, value in ((["delta-vector", "--veronese", "6,5,3,3,3"], "-5"),
                        (["search-labeling", p4_file, "--cmax", "2"], "0"),
                        (["analyze", p4_file, "--c", "2,2,2,2"], "x")):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --budget: must be an integer >= 1, got '{value}'" in err


def test_int_star_degree_reads_one_report(capsys):
    """The degree and the last level tested come from one report: degrees
    2 and 3, and level 4 holds none."""
    code, doc = run_json(capsys, ["int-star-degree", "--veronese", "6,5,3,3,3", "--json"])
    assert code == 0 and doc == {"int_star_degree": 3, "scan_bound_used": 4}
    info = levelness._report.cache_info()
    assert (info.misses, info.hits) == (1, 0)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_sweep_veronese_rejects_n_below_1(capsys, n):
    assert main(["sweep-veronese", "--n", n, "--cmax", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --n") and "Traceback" not in err


def test_budget_exit_code(capsys, k34_file):
    assert main(["analyze", k34_file, "--budget", "5"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv,flag", [
    (["--m", "-1", "--n", "3", "--c", "2,2"], "--m"),
    (["--m", "2", "--n", "0", "--c", "2,2"], "--n"),
    (["--m", "2", "--n", "1", "--c", "0,0,0"], "--c"),
])
def test_bipartite_rejects_sizes_and_bounds_below_1(capsys, argv, flag):
    """Equal side sums once let these through as a plain box."""
    assert main(["bipartite"] + argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}") and "Traceback" not in captured.err


def test_int_star_degree_empty_interior_scans_level_2(capsys, tmp_path):
    """The unit square (path(2), c = (1, 1)) has degree-2 points at level 2,
    its codegree, and none at level 3, where the scan stops."""
    square = tmp_path / "path2.json"
    square.write_text(json.dumps({"n": 2, "edges": [[1, 2]], "c": [1, 1]}), encoding="utf-8")
    code, doc = run_json(capsys, ["int-star-degree", str(square), "--json"])
    assert code == 0 and doc == {"int_star_degree": 2, "scan_bound_used": 3}


class _ReadRecorder:
    """Stands in for the parsed namespace and records each attribute read."""

    def __init__(self, namespace):
        self._values, self.read = vars(namespace), set()

    def __getattr__(self, name):
        if name not in self._values:
            raise AttributeError(name)
        self.read.add(name)
        return self._values[name]


VERONESE = "4,2,2,2"


def _valid_forms(graph, tree):
    """Valid arguments for each subcommand; commands that take a graph file
    or --veronese are run both ways."""
    poly = [[graph], ["--veronese", VERONESE]]
    return {
        "analyze": [[graph]],
        "facets": poly,
        "delta-vector": poly,
        "level": poly,
        "psg": poly,
        "int-star-degree": poly,
        "reduced-degree": [form + ["--point", "1,1,1", "--level", "1"] for form in poly],
        "veronese": [["--a", "4", "--c", "2,2,2"]],
        "bipartite": [["--m", "2", "--n", "2", "--c", "2,2,2,2"]],
        "tree-check": [[tree]],
        "search-labeling": [[tree, "--cmax", "2"]],
        "sweep-veronese": [["--n", "2", "--cmax", "3"]],
        "verify": [],       # takes no option, so there is nothing to read
    }


def test_every_accepted_option_is_read(capsys, path3_file, p4_file):
    """Each subcommand accepts exactly the options its handler reads."""
    parser = _build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    forms = _valid_forms(path3_file, p4_file)
    assert set(forms) == set(commands)
    for name, sub in commands.items():
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        read = set()
        for form in forms[name]:
            namespace = parser.parse_args([name] + form)
            recorder = _ReadRecorder(namespace)
            assert namespace.func(recorder) == 0
            read |= recorder.read
        assert dests <= read, f"{name} accepts options it never reads: {dests - read}"
    capsys.readouterr()


@pytest.mark.parametrize("argv,removed", [
    (["verify"], ["--suite", "paper"]),
    (["verify"], ["--json"]),
    (["verify"], ["--budget", "5"]),
    (["verify"], ["--strict"]),
    (["veronese", "--a", "4", "--c", "2,2,2"], ["--formula"]),
    (["veronese", "--a", "4", "--c", "2,2,2"], ["--degree"]),
    (["veronese", "--a", "4", "--c", "2,2,2"], ["--no-degree"]),
    (["tree-check", "TREE"], ["--search", "2"]),
    (["tree-check", "TREE"], ["--c", "2,2,2,2"]),
    (["tree-check", "TREE"], ["--budget", "5"]),
    (["search-labeling", "TREE", "--cmax", "2"], ["--c", "2,2,2,2"]),
    (["facets", "--veronese", VERONESE], ["--strict"]),
    (["delta-vector", "--veronese", VERONESE], ["--strict"]),
    (["int-star-degree", "--veronese", VERONESE], ["--strict"]),
    (["reduced-degree", "--veronese", VERONESE, "--point", "1,1,1", "--level", "1"],
     ["--strict"]),
    (["sweep-veronese", "--n", "2", "--cmax", "3"], ["--strict"]),
    (["bipartite", "--m", "2", "--n", "2", "--c", "2,2,2,2"], ["--budget", "5"]),
])
def test_removed_options_exit_2(capsys, p4_file, argv, removed):
    argv = [p4_file if arg == "TREE" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + removed)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
