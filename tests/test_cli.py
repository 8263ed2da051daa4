import json

import pytest

from polylevel.cli import main


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
    main(["analyze", k34_file, "--json", "--max-level", "2"])
    first = capsys.readouterr().out
    main(["analyze", k34_file, "--json", "--max-level", "2"])
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
    assert code == 0 and doc["int_star_degree"] == 3
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
    code, doc = run_json(capsys, ["veronese", "--a", "4", "--c", "2,2,2",
                                  "--formula", "--json"])
    assert doc["level_criterion"] is True and doc["uniform_formula"] is True
    assert doc["int_star_degree"] == 1
    code, doc = run_json(capsys, ["veronese", "--a", "4", "--c", "2,2,2",
                                  "--no-degree", "--json"])
    assert doc["int_star_degree"] is None


def test_bipartite_subcommand(capsys):
    code, doc = run_json(capsys, ["bipartite", "--m", "3", "--n", "4",
                                  "--c", "2,2,2,2,2,2,2", "--json"])
    assert code == 0
    assert doc["m"] == 4 and doc["n"] == 3      # normalized heavy side
    assert doc["interior_nonempty"] is True
    assert doc["level"] is False
    assert doc["violating_subset"] == [1, 2, 3, 4]
    code, doc = run_json(capsys, ["bipartite", "--m", "2", "--n", "2",
                                  "--c", "2,2,2,2", "--json"])
    assert doc["mode"] == "box" and doc["level"] is True


def test_tree_check_and_search(capsys, tmp_path):
    doc = {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}
    p = tmp_path / "p4.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_json(capsys, ["tree-check", str(p), "--search", "2", "--json"])
    assert code == 0
    assert out["labeling_pseudo_gorenstein"] is True
    assert out["search_witness"] == [2, 2, 2, 2]
    code, out = run_json(capsys, ["search-labeling", str(p), "--cmax", "2", "--json"])
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


def test_budget_exit_code(capsys, k34_file):
    assert main(["analyze", k34_file, "--budget", "5"]) == 3
    capsys.readouterr()
