"""Smoke test of the benchmark at a tiny size.

    python -m pytest perfbench/test_smoke.py

Checks that each workload prints every metric BENCHMARK.json lists, with
its unit, in both modes, that the correctness gate fails a run whose
checker is handed a wrong answer, and the tracer's mechanics.
"""

import dataclasses
import json
import os
import time

import pytest

import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, workload, trace):
    code = run.run(["--workload", workload, "--seed", "7", "--seconds", "0.3",
                    "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        value = result["metrics"][m["name"]]["value"]
        assert any(line.startswith(f"metric {m['name']} = ")
                   and line.split("  (")[0].endswith(f" {m['unit']}") for line in lines), m["name"]
        assert isinstance(value, (int, float))
    if not trace:
        assert any(line.startswith("metric failed_share = ") for line in lines)


def _wrong(workload, req, res):
    if workload == "analyze":
        return dict(res, level=not res["level"])
    if workload == "labeling-search":
        return None if res is not None else (2,) * req[2].n
    dv, unimodal, normal, crit = res
    return dv, unimodal, (False, (2, (0,) * req[1].n)), crit


@pytest.mark.parametrize("workload", NAMES)
def test_gate_fails_a_wrong_answer(capsys, monkeypatch, workload):
    original = workloads.WORKLOADS[workload]

    def check(pl, oracle, req, res, memo):
        return original.check(pl, oracle, req, _wrong(workload, req, res), memo)

    monkeypatch.setitem(workloads.WORKLOADS, workload,
                        dataclasses.replace(original, check=check))
    code, lines, result = _run(capsys, workload, trace=1)
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert any(line.startswith("WRONG ") for line in lines)


def test_tracer_refuses_a_missing_target(monkeypatch):
    run.import_library()
    import polylevel

    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("lattice.no_such_function", "call", ("lattice",), None),))
    original = polylevel.lattice.count_lattice_points
    with pytest.raises(AttributeError, match="no_such_function"):
        tracing.Tracer().install()
    assert polylevel.lattice.count_lattice_points is original


def test_generator_span_times_iteration_not_creation(tmp_path):
    pl, _ = run.import_library()
    import polylevel.levelness

    P = pl.veronese_polytope(pl.VeroneseSpec(n=3, a=5, c=(3, 2, 2)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        points = polylevel.levelness.iter_lattice_points(P, 2)
        time.sleep(0.2)
        count = 0
        for _ in points:
            count += 1
        pl.delta_vector(P)
    finally:
        tracer.uninstall()
    assert polylevel.levelness.iter_lattice_points is polylevel.lattice.iter_lattice_points
    path = str(tmp_path / "spans.bin")
    tracer.write(path)
    metrics = tracing.layer_metrics(path, n_requests=1)
    assert metrics["lattice.iter_lattice_points.calls"][0] == 1
    assert metrics["lattice.points_enumerated"][0] == count == pl.count_lattice_points(P, 2)
    assert 0 < metrics["lattice.iter_lattice_points.busy_s"][0] < 0.2
    busy = metrics["lattice.delta_vector.busy_s"][0]
    children = metrics["lattice.count_lattice_points.busy_s"][0]
    assert metrics["lattice.delta_vector.self_s"][0] == pytest.approx(busy - children)
