"""In-memory span recorder that wraps the package's public functions.

Spans are recorded from the benchmark's own files: :func:`installed`
replaces each traced function at the name its caller looks it up under,
and restores the originals on exit.  The package itself is not modified.

Lookup sites (why each target is patched where it is):

* ``cli`` binds ``wigner_fft``, ``benchmark``, ``marginal_*``,
  ``crop_momentum``, ``fringe_spacing`` and ``interference_midpoint`` at
  import, so those are patched on ``doublewell.cli``;
* ``cli._emit_negativity`` imports ``doublewell.wigner.negativity`` at
  call time, and ``wigner`` calls ``total_mass`` and ``_fft_columns``
  through its own globals, so those are patched on ``doublewell.wigner``;
* ``cli`` reaches ``emit.*`` through the module, so ``doublewell.emit``
  is patched;
* ``WellModel.build`` is a classmethod and the closed forms are methods,
  so they are patched on the classes.

A target missing from the package is skipped; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

COMPLEX_BYTES = 16  # one complex128 sample of the correlation lattice


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: bool = False


class Recorder:
    """Thread-safe span store with a per-thread stack of open spans.

    A span opened on a worker thread with an empty stack takes the main
    thread's innermost open span as its parent: the benchmark drives the
    package from the main thread, so that span is the one that started
    the worker (e.g. ``wigner_fft`` fanning columns out to a pool).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident

    def open(self, name: str, counts: dict | None = None) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            top = stack or self._stacks.get(self._main) or [None]
            parent = top[-1].id if top[-1] is not None else None
            span = Span(len(self.spans), name, time.perf_counter(), parent, tid,
                        counts=counts or {})
            self.spans.append(span)
            stack.append(span)
        return span

    def close(self, span: Span, error: bool = False):
        span.end = time.perf_counter()
        span.error = error
        with self._lock:
            self._stacks[span.thread].remove(span)

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        sp = self.open(name, counts)
        try:
            yield sp
        except BaseException:
            self.close(sp, error=True)
            raise
        self.close(sp)

    def wrap(self, name: str, func, before=None, after=None):
        """``before(bound_args) -> counts`` runs at entry, ``after(result,
        counts)`` once the call returns."""
        sig = inspect.signature(func) if before else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts = None
            if before:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = before(bound.arguments)
            with self.span(name, counts) as sp:
                result = func(*args, **kwargs)
            if after:
                after(result, sp.counts)
            return result
        return wrapper

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

def _points(a):
    return {"points": int(np.size(a["x"]))}


def _cells(a):
    return {"cells": int(np.size(a["x_grid"])) * int(a["n_y"])}


def _lattice(a):
    return {"lattice_points": int(a["n"])}


def _csv_values(a):
    return {"values": sum(int(np.size(c)) for c in a["columns"])}


def _matrix_values(a):
    return {"values": sum(int(np.size(a[k])) for k in ("row_vals", "col_vals", "matrix"))}


def _file_bytes(result, counts):
    counts["files"] = 1
    counts["bytes"] = os.path.getsize(result)


REDUCTIONS = ("marginal_position", "marginal_momentum", "crop_momentum",
              "fringe_spacing", "interference_midpoint", "negativity", "total_mass")

# (span name, owner "module[:Class]", attribute, before, after)
TARGETS = [
    ("scenario.parse", "doublewell.scenario", "parse_scenario_text", None, None),
    ("cli.run_scenario", "doublewell.cli", "run_scenario", None, None),
    ("wellcore.build", "doublewell.wellcore:WellModel", "build", None, None),
    *[("wellcore.eval", "doublewell.wellcore:WellModel", m, _points, None)
      for m in ("psi0", "psi1", "potential", "chi", "phi")],
    ("wellcore.eval", "doublewell.wellcore:SuperpositionState", "wavefunction",
     _points, None),
    ("wigner.transform", "doublewell.cli", "wigner_fft", _cells, None),
    ("wigner.transform", "doublewell.wigner", "wigner_fft", _cells, None),
    ("wigner.transform.chunk", "doublewell.wigner", "_fft_columns", None, None),
    *[("wigner.reduce", mod, fn, None, None)
      for mod in ("doublewell.cli", "doublewell.wigner") for fn in REDUCTIONS],
    ("specbench.benchmark", "doublewell.cli", "benchmark", _lattice, None),
    ("emit.format_write", "doublewell.emit", "write_csv_columns", _csv_values, _file_bytes),
    ("emit.format_write", "doublewell.emit", "write_csv_matrix", _matrix_values, _file_bytes),
    ("emit.format_write", "doublewell.emit", "write_heatmap", None, _file_bytes),
    ("emit.format_write", "doublewell.emit", "write_manifest", None, _file_bytes),
    ("emit.hash", "doublewell.emit", "sha256_hex", None, None),
]


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def installed(recorder: Recorder):
    """Patch every present target to record into ``recorder``; restore on exit."""
    saved = []
    try:
        for name, owner_spec, attr, before, after in TARGETS:
            owner = _owner(owner_spec)
            raw = vars(owner).get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                new = classmethod(recorder.wrap(name, raw.__func__, before, after))
            else:
                new = recorder.wrap(name, raw, before, after)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# deriving per-layer metrics
# ---------------------------------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        kids = [(max(lo, sp.start), min(hi, sp.end))
                for lo, hi in children.get(sp.id, ()) if hi > sp.start and lo < sp.end]
        out[sp.id] = (sp.end - sp.start) - _union_length(kids)
    return out


LAYERS = ("scenario", "cli", "wellcore", "wigner", "specbench", "emit")


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    ``.s`` is inclusive time of the outermost span of that name (nested
    spans of the same name are not counted twice); ``self_s`` excludes
    child spans.  Every value is a per-pass mean.
    """
    by_id = {sp.id: sp for sp in spans}
    selfs = self_times(spans)

    def outer(name):
        return [sp for sp in spans if sp.name == name
                and (sp.parent is None or by_id[sp.parent].name != name)]

    def incl(name):
        return sum(sp.end - sp.start for sp in outer(name)) / passes

    def count(name, key=None):
        group = outer(name)
        if key is None:
            return len(group) / passes
        return sum(sp.counts.get(key, 0) for sp in group) / passes

    def self_of(*names):
        return sum(selfs[sp.id] for sp in spans if sp.name in names) / passes

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_of(*{sp.name for sp in spans
                                          if sp.name.split(".")[0] == layer})
        m[f"{layer}.errors"] = sum(sp.error for sp in spans
                                   if sp.name.split(".")[0] == layer) / passes
    m["scenario.parse.calls"] = count("scenario.parse")
    m["scenario.parse.s"] = incl("scenario.parse")
    m["cli.run_scenario.calls"] = count("cli.run_scenario")
    m["cli.run_scenario.s"] = incl("cli.run_scenario")
    m["wellcore.build.calls"] = count("wellcore.build")
    m["wellcore.build.s"] = incl("wellcore.build")
    m["wellcore.eval.calls"] = count("wellcore.eval")
    m["wellcore.eval.points"] = count("wellcore.eval", "points")
    m["wellcore.eval.s"] = self_of("wellcore.eval")
    m["wellcore.eval.ns_per_point"] = per(m["wellcore.eval.s"],
                                          m["wellcore.eval.points"], 1e9)
    m["wigner.transform.calls"] = count("wigner.transform")
    m["wigner.transform.cells"] = count("wigner.transform", "cells")
    m["wigner.transform.s"] = incl("wigner.transform")
    m["wigner.transform.self_s"] = self_of("wigner.transform", "wigner.transform.chunk")
    m["wigner.transform.ns_per_cell"] = per(m["wigner.transform.s"],
                                            m["wigner.transform.cells"], 1e9)
    m["wigner.transform.bytes_computed"] = m["wigner.transform.cells"] * COMPLEX_BYTES
    chunks = sum(sp.end - sp.start for sp in spans
                 if sp.name == "wigner.transform.chunk") / passes
    m["wigner.transform.parallelism"] = per(chunks, m["wigner.transform.s"])
    m["wigner.reduce.calls"] = count("wigner.reduce")
    m["wigner.reduce.s"] = incl("wigner.reduce")
    m["specbench.calls"] = count("specbench.benchmark")
    m["specbench.lattice_points"] = count("specbench.benchmark", "lattice_points")
    m["specbench.s"] = incl("specbench.benchmark")
    m["emit.files"] = count("emit.format_write", "files")
    m["emit.bytes"] = count("emit.format_write", "bytes")
    m["emit.values"] = count("emit.format_write", "values")
    m["emit.format_write.s"] = incl("emit.format_write")
    csv_s = sum(sp.end - sp.start for sp in spans
                if sp.name == "emit.format_write" and "values" in sp.counts) / passes
    m["emit.ns_per_value"] = per(csv_s, m["emit.values"], 1e9)
    m["emit.hash.s"] = incl("emit.hash")
    return m
