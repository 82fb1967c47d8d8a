"""Outside-in tracer: spans around every public function of sposet's layers.

``install`` wraps each public function at every module binding, since
``from .homology import reduced_betti`` rebinds the name in ``classify``,
``facevec`` and ``spectral``; a call through any binding opens a span.
Spans are kept in flat in-memory arrays (request id, parent span,
function, start, end) and written out once, at the end.  Self time is a
span's duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("io", "poset", "homology", "classify", "facevec", "charfn", "spectral", "cli")
# Pseudo-function for the tracer's own matrix hashing, kept out of every layer.
KEY_SPAN = "trace.snf_key"
_COLUMNS = ("req", "parent", "func", "start", "end")


class Tracer:
    def __init__(self):
        self.names: list[str] = [KEY_SPAN]
        self.columns = {c: array("q") for c in _COLUMNS}
        self.request = 0
        self.snf_cells = 0
        self.snf_repeats = 0
        self._seen: set[int] = set()
        self._stack: list[int] = []

    def install(self, package: str = "sposet") -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == package or modname.startswith(package + "."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        setattr(mod, name, wrapped[id(obj)])

    def _open(self, func: int) -> int:
        cols, stack = self.columns, self._stack
        sid = len(cols["start"])
        cols["req"].append(self.request)
        cols["parent"].append(stack[-1] if stack else -1)
        cols["func"].append(func)
        cols["end"].append(0)
        stack.append(sid)
        cols["start"].append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.columns["end"][sid] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, qualname: str, fn):
        func = len(self.names)
        self.names.append(qualname)
        count_matrix = qualname == "homology.smith_normal_form"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_matrix:
                matrix = args[0] if args else kwargs.get("matrix")
                if isinstance(matrix, (list, tuple)):
                    self._count_matrix(matrix)
            sid = self._open(func)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return wrapper

    def _count_matrix(self, matrix) -> None:
        sid = self._open(0)
        rows = tuple(tuple(row) for row in matrix)
        self.snf_cells += len(rows) * (len(rows[0]) if rows else 0)
        key = hash(rows)
        if key in self._seen:
            self.snf_repeats += 1
        self._seen.add(key)
        self._close(sid)

    def dump(self, path: str) -> None:
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.columns["start"]),
                       "snf_cells": self.snf_cells, "snf_repeats": self.snf_repeats}, fh)
        with open(path + ".bin", "wb") as fh:
            for c in _COLUMNS:
                self.columns[c].tofile(fh)


def load(path: str) -> tuple[dict, dict[str, array]]:
    with open(path + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    columns = {}
    with open(path + ".bin", "rb") as fh:
        for c in _COLUMNS:
            columns[c] = array("q")
            columns[c].fromfile(fh, header["spans"])
    return header, columns


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    n = len(start)
    covered = [0] * n
    reach = {}
    for c in sorted(range(n), key=start.__getitem__):
        p = parent[c]
        if p < 0:
            continue
        lo = max(start[c], start[p], reach.get(p, start[p]))
        hi = min(end[c], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, start[p]), hi)
    return [end[s] - start[s] - covered[s] for s in range(n)]


# ROADMAP stages: every traced function belongs to exactly one.
STAGES = {
    "parse": ("io.parse", "io.parse_path"),
    "poset build and validation": ("poset.*",),
    "boundary matrices": ("homology.boundary_matrices",),
    "SNF": ("homology.smith_normal_form",),
    "link table and classification": ("poset.link", "homology.reduced_betti",
                                      "classify.*"),
    "face vectors": ("facevec.*",),
    "pages/bigraded": ("spectral.*",),
    "verify": ("spectral.verify",),
    "charfn": ("charfn.*",),
    "JSON emission": ("io.*",),
    "cli and coefficients": ("cli.*", "homology.*"),
    "tracer": (KEY_SPAN,),
}


def stage_of(name: str) -> str:
    """Exact names win over ``layer.*`` patterns, which cover every layer."""
    for stage, members in STAGES.items():
        if name in members:
            return stage
    for stage, members in STAGES.items():
        if name.split(".")[0] + ".*" in members:
            return stage
    raise KeyError(name)


def summarize(header: dict, cols: dict[str, array]) -> dict:
    """Per-function self time and calls, stage self times, root wall time."""
    names = header["names"]
    selfs = self_times(cols["start"], cols["end"], cols["parent"])
    self_ns = [0] * len(names)
    calls = [0] * len(names)
    attempts = 0
    sample_fn = names.index("charfn.random_q_charfn") if "charfn.random_q_charfn" in names else -2
    check_fn = names.index("charfn.check") if "charfn.check" in names else -2
    root_ns = 0
    func, parent = cols["func"], cols["parent"]
    for s, f in enumerate(func):
        self_ns[f] += selfs[s]
        calls[f] += 1
        p = parent[s]
        if p < 0:
            root_ns += cols["end"][s] - cols["start"][s]
        elif f == check_fn and func[p] == sample_fn:
            attempts += 1
    stages = dict.fromkeys(STAGES, 0)
    for f, name in enumerate(names):
        stages[stage_of(name)] += self_ns[f]
    return {
        "self_ns": dict(zip(names, self_ns)),
        "calls": dict(zip(names, calls)),
        "stages_ns": stages,
        "root_ns": root_ns,
        "sample_attempts": attempts,
        "snf_cells": header["snf_cells"],
        "snf_repeats": header["snf_repeats"],
    }


def layer_metrics(summary: dict, requests: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each per request (ratios excepted)."""
    ms = lambda *fns: sum(summary["self_ns"].get(f, 0) for f in fns) / 1e6 / requests  # noqa: E731
    calls = lambda fn: summary["calls"].get(fn, 0) / requests  # noqa: E731
    snf_calls = summary["calls"].get("homology.smith_normal_form", 0)
    return {
        "homology.snf_ms": (ms("homology.smith_normal_form"), "ms"),
        "homology.snf_calls": (calls("homology.smith_normal_form"), "count"),
        "homology.snf_cells": (summary["snf_cells"] / requests, "count"),
        "homology.snf_repeat_ratio": (summary["snf_repeats"] / snf_calls if snf_calls else 0.0, "ratio"),
        "homology.chain_ms": (ms("homology.boundary_matrices"), "ms"),
        "homology.betti_calls": (calls("homology.reduced_betti"), "count"),
        "poset.link_ms": (ms("poset.link"), "ms"),
        "poset.link_calls": (calls("poset.link"), "count"),
        "poset.build_ms": (ms("poset.from_face_lattice", "poset.from_facets"), "ms"),
        "poset.validate_ms": (ms("poset.validate_stats"), "ms"),
        "classify.witness_ms": (ms("classify.buchsbaum_witnesses"), "ms"),
        "classify.classify_ms": (ms("classify.classify"), "ms"),
        "facevec.ft_ms": (ms("facevec.ft_vector"), "ms"),
        "facevec.identity_ms": (ms("facevec.identity_report"), "ms"),
        "spectral.make_problem_ms": (ms("spectral.make_problem"), "ms"),
        "spectral.pages_calls": (calls("spectral.pages"), "count"),
        "spectral.relative_delta_calls": (calls("spectral.relative_and_delta"), "count"),
        "spectral.verify_ms": (ms("spectral.verify"), "ms"),
        "charfn.check_ms": (ms("charfn.check"), "ms"),
        "charfn.check_calls": (calls("charfn.check"), "count"),
        "charfn.sample_attempts": (summary["sample_attempts"] / requests, "count"),
        "io.parse_ms": (ms("io.parse", "io.parse_path"), "ms"),
        "io.emit_ms": (ms("io.dumps_canonical", "io.emit", "io.emit_charfn",
                          "io.emit_poset", "io.emit_problem"), "ms"),
    }
