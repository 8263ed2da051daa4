"""Layer spans recorded from outside the library.

`Tracer.install` replaces the public functions named in `TARGETS` with
wrappers, in every module that binds them, and `uninstall` puts the
originals back.  Each wrapped call records one span: name, start, end, busy
time, parent span, request id and one integer read from the return value.
Spans stay in flat arrays until the run ends; `write` stores them in a span
file and `layer_metrics` derives every per-layer figure from that file.

For a generator (`iter_lattice_points`) the span runs from the first to the
last resumption and its busy time is the time spent inside the generator,
so the consumer's work between items is not charged to it.  Self time is
busy time minus the busy time of the direct child spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import time


def _realizable(result) -> int:
    return int(bool(result[0] if isinstance(result, tuple) else result))


# span name, kind, the modules (relative to polylevel; "" is the package)
# that bind the name, and what the span's value records
TARGETS = (
    ("bounded.enumerate_bases", "call", ("bounded", "criteria", "polymatroid", ""),
     lambda B: len(B.bases)),
    ("bounded.realize_degree_sequence", "call", ("bounded", ""), _realizable),
    ("bounded.delta_c", "call", ("bounded", ""), None),
    ("polymatroid.facets", "call", ("polymatroid", "criteria", ""),
     lambda P: len(P.upper_facets)),
    ("polymatroid.RankOracle", "init", ("polymatroid", "criteria", ""), None),
    ("lattice.count_lattice_points", "call", ("lattice", "levelness", ""), None),
    ("lattice.iter_lattice_points", "gen", ("lattice", "levelness"), None),
    ("lattice.lattice_points", "call", ("lattice", "levelness", "criteria", ""), None),
    ("lattice.delta_vector", "call", ("lattice", ""), None),
    ("lattice.normality_check", "call", ("lattice", ""), None),
    ("lattice.reflexive_up_to_translation", "call", ("lattice", ""), None),
    ("levelness.analyze_polytope", "call", ("levelness", ""),
     lambda rep: len(rep.reduced_degree_table)),
    ("levelness.level_star", "call", ("levelness", ""), None),
    ("criteria.search_labeling", "call", ("criteria", ""), lambda c: int(c is not None)),
    ("criteria.veronese_level_criterion", "call", ("criteria", ""), None),
)

PACKAGE = "polylevel"
_FLOAT_FIELDS = ("start", "end", "busy")
_INT_FIELDS = ("name", "parent", "request", "value")


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.cols = {f: array.array("d") for f in _FLOAT_FIELDS}
        self.cols.update({f: array.array("q") for f in _INT_FIELDS})
        self.stack: list[int] = []
        self.request_id = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        c = self.cols
        sid = len(c["name"])
        c["name"].append(nid)
        c["parent"].append(self.stack[-1] if self.stack else -1)
        c["request"].append(self.request_id)
        c["value"].append(0)
        for f in _FLOAT_FIELDS:
            c[f].append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float, busy: float, value: int) -> None:
        c = self.cols
        c["start"][sid], c["end"][sid], c["busy"][sid] = t0, t1, busy
        c["value"][sid] = value

    def _wrap_call(self, nid: int, fn, measure):
        tracer, clock = self, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.stack.pop()
                tracer._close(sid, t0, t1, t1 - t0, 0)
            if measure is not None:
                tracer.cols["value"][sid] = measure(out)
            return out

        return traced

    def _wrap_gen(self, nid: int, fn):
        tracer, clock = self, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)  # the body runs only once iterated
            sid = None
            first = last = inside = 0.0
            count = 0
            try:
                while True:
                    if sid is None:
                        sid = tracer._open(nid)
                    else:
                        tracer.stack.append(sid)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        tracer.stack.pop()
                        if count == 0:
                            first = t0
                        last = t1
                        inside += t1 - t0
                    count += 1
                    yield item
            finally:
                gen.close()
                if sid is not None:
                    tracer._close(sid, first, last, inside, count)

        return traced

    # -- installation -------------------------------------------------------

    @staticmethod
    def _module(rel: str):
        return importlib.import_module(PACKAGE + ("." + rel if rel else ""))

    def install(self) -> None:
        """Patch every binding in TARGETS; raise if any name is missing or
        a module binds a different object than the defining module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        plan = []
        for nid, (name, kind, bound_in, measure) in enumerate(TARGETS):
            layer, attr = name.split(".")
            original = getattr(self._module(layer), attr, None)
            if original is None:
                raise AttributeError(f"trace target {name} does not exist")
            for rel in bound_in:
                got = getattr(self._module(rel), attr, None)
                if got is not original:
                    where = PACKAGE + ("." + rel if rel else "")
                    raise AttributeError(f"{where}.{attr} is not {name}")
            if kind == "init":
                plan.append((original, "__init__",
                             self._wrap_call(nid, original.__init__, measure)))
                continue
            wrapper = (self._wrap_gen(nid, original) if kind == "gen"
                       else self._wrap_call(nid, original, measure))
            plan.extend((self._module(rel), attr, wrapper) for rel in bound_in)
        try:
            for obj, attr, wrapper in plan:
                self._saved.append((obj, attr, obj.__dict__.get(attr)))
                setattr(obj, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    # -- span file ----------------------------------------------------------

    def write(self, path: str) -> int:
        """Header line (JSON) followed by one raw array per field."""
        n = len(self.cols["name"])
        header = {"names": self.names, "count": n,
                  "fields": [[f, self.cols[f].typecode] for f in _FLOAT_FIELDS + _INT_FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in _FLOAT_FIELDS + _INT_FIELDS:
                self.cols[f].tofile(fh)
        return n


def read_spans(path: str):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for field, code in header["fields"]:
            cols[field] = array.array(code)
            cols[field].fromfile(fh, header["count"])
    return header["names"], cols


def layer_metrics(path: str, n_requests: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, all derived from the span file at `path`."""
    names, c = read_spans(path)
    n = len(c["name"])
    child_busy = [0.0] * n
    for sid in range(n):
        p = c["parent"][sid]
        if p >= 0:
            child_busy[p] += c["busy"][sid]
    k = len(names)
    calls, busy, self_s, value = [0] * k, [0.0] * k, [0.0] * k, [0] * k
    nid_of = {name: i for i, name in enumerate(names)}
    search, enum = nid_of["criteria.search_labeling"], nid_of["bounded.enumerate_bases"]
    tried = 0
    for sid in range(n):
        i = c["name"][sid]
        calls[i] += 1
        busy[i] += c["busy"][sid]
        self_s[i] += c["busy"][sid] - child_busy[sid]
        value[i] += c["value"][sid]
        p = c["parent"][sid]
        tried += i == enum and p >= 0 and c["name"][p] == search

    def per(total, count):
        return total / count if count else 0.0

    out: dict[str, tuple[float, str]] = {}
    for i, name in enumerate(names):
        out[name + ".calls"] = (calls[i], "count")
        out[name + ".busy_s"] = (busy[i], "s")
        out[name + ".self_s"] = (self_s[i], "s")
    v = {name: (value[i], calls[i]) for i, name in enumerate(names)}
    out["bounded.realize_hit_ratio"] = (per(*v["bounded.realize_degree_sequence"]), "ratio")
    out["bounded.bases_per_call"] = (per(*v["bounded.enumerate_bases"]), "count/call")
    out["polymatroid.facets_per_hull"] = (per(*v["polymatroid.facets"]), "count/call")
    out["lattice.points_enumerated"] = (
        per(v["lattice.iter_lattice_points"][0], n_requests), "count/request")
    out["levelness.table_points"] = (per(*v["levelness.analyze_polytope"]), "count/call")
    out["criteria.bound_vectors_tried"] = (
        per(tried, v["criteria.search_labeling"][1]), "count/call")
    out["criteria.witness_found_share"] = (per(*v["criteria.search_labeling"]), "ratio")
    return out
