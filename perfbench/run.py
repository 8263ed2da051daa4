#!/usr/bin/env python3
"""Benchmark of the polylevel library: one client, closed loop.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Workloads: analyze, labeling-search, veronese-ehrhart (see
workloads.py and README.md).  The client sends its next request only after
the previous one returns, with the library's default work caps.

Set-up draws a pool of requests from the seeded stream, sized so that
serving it takes about 0.8 of --seconds on the reference machine
(README.md); the timed loop serves it once, in order.  The machine is
shared, and other tenants slow it by up to half for tens of seconds at a
time, so every time is corrected for the machine's speed: a fixed pure
Python probe, outside the library, is timed before every request, and a
request's wall time is scaled by the probe's reference time over its median
time around that request.  The raw figures are printed next to the
corrected ones.  Every answer is checked against a referee after the
timed loop; the last line of standard output is one JSON object with the
result.

--trace 0 prints the end-to-end metrics.  --trace 1 serves the pool once
untraced, then once with layer spans recorded, writes the span file under
.bench_out/ and prints the per-layer metrics derived from it.

Exit status: 0 when every answer is correct, 1 when a check fails, 2 when
the library sources are missing.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 8
TAIL_ABOVE = 10
SHOW_PROBLEMS = 5
PROBE_LOOPS = 600
# the probe's median time on the reference machine (README.md): times are
# reported as if every request had run at that speed
PROBE_REF_S = 0.45e-3
PROBE_WINDOW_S = 1.0      # probes this close to a timed span rate the machine's speed for it
PROBE_BURST = 8           # probes on each side of a set-up measurement

clock = time.perf_counter


def _spin(n: int) -> int:
    """Fixed work of the kind the library does: tuples, dict updates, a sort."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(n):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    return len(sorted(counts.items()))


class Speed:
    """The machine's speed over the run, read from a fixed probe timed
    between measurements.  The slowdown around a span [t0, t1] is the median
    probe time within PROBE_WINDOW_S of it over PROBE_REF_S, so it is 1 when
    the machine ran around the span as the reference machine typically does."""

    def __init__(self):
        self.at: list[float] = []    # probe midpoints, increasing
        self.took: list[float] = []  # probe durations

    def probe(self, times: int = 1) -> None:
        # without the collector, whose work depends on what the library
        # keeps alive, the probe's time depends on the machine alone
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                t0 = clock()
                _spin(PROBE_LOOPS)
                t1 = clock()
                self.at.append((t0 + t1) / 2)
                self.took.append(t1 - t0)
        finally:
            if collecting:
                gc.enable()

    def slowdown(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.at, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + PROBE_WINDOW_S)
        return statistics.median(self.took[lo:hi]) / PROBE_REF_S

    def corrected(self, spans) -> list[float]:
        """Each span's duration divided by the machine's slowdown around it."""
        return [(t1 - t0) / self.slowdown(t0, t1) for t0, t1 in spans]

    def summary(self) -> str:
        med = statistics.median(self.took)
        return (f"{len(self.took)} probes: fastest {1e3 * min(self.took):.4f} ms, median "
                f"{1e3 * med:.4f} ms, {med / PROBE_REF_S:.3f} of the reference "
                f"{1e3 * PROBE_REF_S:.3g} ms")


def import_library():
    if not os.path.isfile(os.path.join(SRC, "polylevel", "__init__.py")):
        print(f"error: no library sources at {os.path.join(SRC, 'polylevel')}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import polylevel
    import polylevel.oracle

    if not os.path.abspath(polylevel.__file__).startswith(SRC + os.sep):
        print(f"error: polylevel imported from {polylevel.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return polylevel, polylevel.oracle


def set_up(name: str, seed: int, seconds: float):
    pl, oracle = import_library()
    w = workloads.WORKLOADS[name]
    pool = list(itertools.islice(w.stream(pl, seed), w.pool_size(seconds)))
    w.serve(pl, w.warmup(pl))
    return pl, oracle, w, pool


def measure_setup(args, repeats: int, speed: Speed) -> list[tuple[float, float]]:
    """Spans from process start to the end of set-up, in fresh processes,
    with probes on each side."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    spans = []
    for _ in range(repeats):
        speed.probe(PROBE_BURST)
        t0 = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = clock()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        spans.append((t0, t1))
    speed.probe(PROBE_BURST)
    return spans


class Phase:
    """One pass over the pool.  `spans[k]` is when request k was served;
    `results[k]` and `errors[k]` its answer.  An error is None or (is a
    budget error, message)."""

    def __init__(self, pool):
        self.requests = pool
        self.spans: list[tuple[float, float]] = []
        self.results: list = []
        self.errors: list = []
        self.wall = self.peak_rss_mb = 0.0


def serve(pl, w, pool, speed: Speed, tracer=None) -> Phase:
    """Serve the pool once, one request after another, with a speed probe
    before each.  A request that raises is recorded, never dropped."""
    ph = Phase(pool)
    start = clock()
    for k, req in enumerate(pool):
        speed.probe()
        if tracer is not None:
            tracer.request_id = k
        t0 = clock()
        try:
            res, err = w.serve(pl, req), None
        except Exception as exc:  # reported per request by check_phase
            res, err = None, (isinstance(exc, pl.BudgetExceededError),
                              f"{type(exc).__name__}: {exc}")
        ph.spans.append((t0, clock()))
        ph.results.append(res)
        ph.errors.append(err)
    speed.probe()
    ph.wall = clock() - start
    ph.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return ph


def check_phase(pl, oracle, w, ph: Phase, problems: list) -> int:
    """Referee every answer; returns the number of failed requests."""
    failed = 0
    memo: dict = {}
    for k, (req, res, err) in enumerate(zip(ph.requests, ph.results, ph.errors)):
        if err is not None:
            failed += 1
            if not err[0]:
                problems.append(f"request {k}: {err[1]}")
            continue
        bad = w.check(pl, oracle, req, res, memo)
        if bad:
            failed += 1
            problems.extend(f"request {k}: {b}" for b in bad)
    if "level_refereed" in memo:
        print(f"check  level* verdicts checked by brute_level_star: "
              f"{memo['level_refereed']} of {len(ph.requests)}")
    return failed


def latency_figures(costs: list[float]):
    lat = sorted(costs)
    n = len(lat)
    p50 = statistics.median(lat)
    if n > TAIL_ABOVE:
        tail, pct = lat[n - 1 - TAIL_ABOVE], 100.0 * (n - TAIL_ABOVE) / n
    else:
        tail, pct = lat[-1], 100.0
    return p50, tail, pct, n


def print_shapes(w, ph: Phase):
    ok = [(q, r) for q, r, e in zip(ph.requests, ph.results, ph.errors) if e is None]
    for label, count in w.shapes([q for q, _ in ok], [r for _, r in ok]):
        share = count / len(ok) if ok else 0.0
        print(f"shape  {label}: {count} of {len(ok)} ({share:.3f})")


def canonical_answers(w, ph: Phase) -> list:
    return [None if e is not None else w.canonical(q, r)
            for q, r, e in zip(ph.requests, ph.results, ph.errors)]


def end_to_end_rows(ph: Phase, failed: int, setup_spans, speed: Speed):
    raw = [t1 - t0 for t0, t1 in ph.spans]
    costs = speed.corrected(ph.spans)
    p50, tail, pct, n = latency_figures(costs)
    raw_p50, raw_tail, _, _ = latency_figures(raw)
    setup = speed.corrected(setup_spans)
    raw_setup = [t1 - t0 for t0, t1 in setup_spans]
    return [
        ("requests_per_s", n / sum(costs), "1/s",
         f"{n} requests, corrected busy time {sum(costs):.3f} s; raw {n / ph.wall:.4g}/s "
         f"over {ph.wall:.3f} s of wall time"),
        ("latency_p50_ms", 1e3 * p50, "ms", f"n={n}; raw {1e3 * raw_p50:.4g} ms"),
        ("latency_tail_ms", 1e3 * tail, "ms",
         f"p{pct:.2f}, n={n}, {min(TAIL_ABOVE, n - 1)} above; raw {1e3 * raw_tail:.4g} ms"),
        ("failed_share", failed / n, "ratio", f"{failed} of {n}"),
        ("setup_s", statistics.median(setup), "s",
         f"median of {len(setup)}; raw " + " ".join(f"{t:.3f}" for t in raw_setup)),
        ("peak_rss_mb", ph.peak_rss_mb, "MB", "whole process, end of timed loop"),
    ]


def traced_run(pl, w, pool, seed: int, speed: Speed):
    """Serve the pool once untraced, then once traced; returns both phases
    and the per-layer rows."""
    base = serve(pl, w, pool, speed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = serve(pl, w, pool, speed, tracer=tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"spans-{w.name}-seed{seed}.bin")
    n_spans = tracer.write(span_path)
    print(f"spans  {n_spans} from {len(pool)} traced requests "
          f"written to {os.path.relpath(span_path, ROOT)}")
    rows = [(k, v, unit, "")
            for k, (v, unit) in tracing.layer_metrics(span_path, len(pool)).items()]
    untraced, with_spans = sum(speed.corrected(base.spans)), sum(speed.corrected(traced.spans))
    rows.append(("trace_overhead_share", 1.0 - untraced / with_spans, "ratio",
                 f"corrected busy time {untraced:.3f} s untraced vs {with_spans:.3f} s traced"))
    return base, traced, rows


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.setup_probe:
        set_up(args.workload, args.seed, args.seconds)
        print("ready", flush=True)
        return 0

    import_library()  # fail fast, before the set-up probes
    speed = Speed()
    # half the set-up measurements before the timed loop and half after it,
    # so that their median spans the machine's state over the whole run
    setup_spans = [] if args.trace else measure_setup(args, SETUP_REPEATS // 2, speed)
    pl, oracle, w, pool = set_up(args.workload, args.seed, args.seconds)
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          f"  pool {len(pool)}")
    problems: list[str] = []
    if args.trace:
        base, traced, rows = traced_run(pl, w, pool, args.seed, speed)
        if canonical_answers(w, base) != canonical_answers(w, traced):
            problems.append("traced answers differ from untraced answers")
        phases = [base, traced]
    else:
        base = serve(pl, w, pool, speed)
        phases = [base]
        setup_spans += measure_setup(args, SETUP_REPEATS - SETUP_REPEATS // 2, speed)

    failed = check_phase(pl, oracle, w, base, problems) * len(phases)
    attempted = len(pool) * len(phases)
    if not args.trace:
        rows = end_to_end_rows(base, failed, setup_spans, speed)

    print(f"speed  {speed.summary()}")
    metrics: dict[str, dict] = {}
    for name, value, unit, note in rows:
        print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        if name != "failed_share":  # carried by `attempted` and `failed`; 0 when healthy
            metrics[name] = {"value": value, "unit": unit}
    print_shapes(w, base)
    canon = canonical_answers(w, base)
    k = min(len(canon), workloads.DIGEST_PREFIX)
    print(f"digest first {k} requests {workloads.digest(canon[:k])}; "
          f"all {len(canon)} requests {workloads.digest(canon)}")
    for p in problems[:SHOW_PROBLEMS]:
        print(f"WRONG  {p}")
    if len(problems) > SHOW_PROBLEMS:
        print(f"WRONG  ... {len(problems) - SHOW_PROBLEMS} more")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(run())
