"""doublewell benchmark: end-to-end and per-layer metrics for scenario runs.

Run from the repository root:

    python3 wellbench/run.py --workload figures --seed 1 --seconds 15 --trace 0

Each run is one process.  It times set-up in fresh interpreters
(``probe.py``), runs one warm-up pass, then measures whole passes of the
workload through the public API (``parse_scenario_text`` ->
``run_scenario``) until ``--seconds`` of pass time has accumulated.
Every call's outputs are checked outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the spans
of the traced ones (see README.md).  Human-readable lines go first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIO_DIR = SRC / "doublewell" / "scenarios"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
MIN_PASSES = 3
# stop adding passes past this much wall time, so a run ends inside 180 s
WALL_GUARD_S = 140.0

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "ratio": ("parallelism", "self_sum_share"),
    "ns": ("ns_per_point", "ns_per_cell", "ns_per_value"),
    "B": ("bytes", "bytes_computed"),
    "count": ("calls", "points", "cells", "files", "values", "lattice_points",
              "errors", "spans"),
}


def per_layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    for unit, leaves in PER_LAYER_UNITS.items():
        if leaf in leaves:
            return unit
    return "s"


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cache_sizes() -> dict[str, str]:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    sizes = {}
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _kib(text: str) -> int:
    units = {"K": 1, "M": 1024, "G": 1024 * 1024}
    return int(text[:-1]) * units[text[-1]] if text and text[-1] in units else int(text or 0)


def environment(workload: str, seed: int, threads: int) -> dict:
    import numpy
    import scipy
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
        simd = {"baseline": list(__cpu_baseline__),
                "dispatch_enabled": [f for f in __cpu_dispatch__
                                     if __cpu_features__.get(f)]}
    except ImportError:
        simd = "unknown"
    caches = _cache_sizes()
    lattice_mib = 512 * 4096 * 16 / 2 ** 20
    l3_mib = _kib(caches.get("L3", "0")) / 1024
    return {
        "workload": workload, "seed": seed, "threads": threads,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_simd": simd, "cache": caches,
        "large_grid_note": (
            f"large_grid complex lattice {lattice_mib:.0f} MiB vs 4 x L3 = "
            f"{4 * l3_mib:.0f} MiB: below it, so its bytes are computed bytes, "
            "not a bandwidth measurement"),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Calls attempted and the ids of those that failed, with reasons."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    messages: list = field(default_factory=list)

    def fail(self, call_id, reasons):
        if reasons:
            self.failed.add(call_id)
            self.messages.extend(f"{call_id}: {r}" for r in reasons)


@dataclass
class PassResult:
    wall: float
    cpu: float
    calls: list  # (scenario, out_dir, manifest or exception)


def load_pass(workload: str, seed: int, index: int) -> list:
    from doublewell import scenario
    from workloads import pass_texts
    return [scenario.parse_scenario_text(text, name=name)
            for name, text in pass_texts(workload, seed, index, SCENARIO_DIR)]


def run_pass(scenarios: list, pass_dir: Path, threads: int) -> PassResult:
    """Run every scenario once; only this loop is timed."""
    from doublewell import cli
    calls = []
    c0, t0 = time.process_time(), time.perf_counter()
    for k, scn in enumerate(scenarios):
        out = pass_dir / f"c{k:02d}"
        try:
            result = cli.run_scenario(scn, out, threads=threads)
        except Exception as exc:  # a failed call is counted, not fatal
            result = exc
        calls.append((scn, out, result))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return PassResult(wall, cpu, calls)


def _guarded(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception:  # a check that cannot complete is a failed check
        return ["check raised:\n" + traceback.format_exc(limit=3)]


def check_pass(result: PassResult, index: int, threads: int, tally: Tally):
    """Per-call output checks; each failing call counts once."""
    from checks import check_call
    for k, (scn, out, manifest) in enumerate(result.calls):
        tally.attempted += 1
        if isinstance(manifest, Exception):
            tally.fail((index, k), [f"run_scenario raised {manifest!r}"])
        else:
            tally.fail((index, k), _guarded(check_call, scn, out, manifest,
                                            threads, index + k))


def check_once(result: PassResult, threads: int, work: Path, tally: Tally):
    """Once-per-run checks on the warm-up pass, charged to its first call."""
    import checks
    from doublewell import cli
    scn, out, _ = result.calls[0]
    other = 2 if threads == 1 else 1
    tally.attempted += 1
    try:
        cli.run_scenario(scn, work / "other_threads", threads=other)
        tally.fail(("threads", other), _guarded(
            checks.check_same_bytes, out, work / "other_threads"))
    except Exception as exc:
        tally.fail(("threads", other), [f"run_scenario raised {exc!r}"])
    tally.fail((0, 0), _guarded(checks.check_engines, scn))
    for k, (scn, out, manifest) in enumerate(result.calls):
        if (not isinstance(manifest, Exception)
                and checks.FIELD_OUTPUTS & set(scn.outputs)
                and scn.n_x * scn.n_y > checks.FRAME_CHECK_MAX_CELLS):
            tally.fail((0, k), _guarded(checks.check_frame, scn,
                                        scn.sweep_values()[0], 0, out, threads))


def _probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Recorder, installed, layer_metrics
    from workloads import WORKLOADS

    threads = WORKLOADS[workload].threads
    setup = sorted(_probe_setup(workload, seed) for _ in range(SETUP_PROBES))
    env = environment(workload, seed, threads)
    work = OUT / f"work-{workload}-s{seed}-p{os.getpid()}"
    tally = Tally()
    recorder = Recorder() if trace else None
    walls = {False: [], True: []}
    cpus = []
    started = time.perf_counter()
    try:
        warm = run_pass(load_pass(workload, seed, 0), work / "p0", threads)
        check_pass(warm, 0, threads, tally)
        index = 1
        while True:
            n_untraced, n_traced = len(walls[False]), len(walls[True])
            enough = (sum(walls[False]) + sum(walls[True]) >= seconds
                      and n_untraced >= (2 if trace else MIN_PASSES)
                      and n_traced >= (2 if trace else 0))
            if enough or (n_untraced and time.perf_counter() - started > WALL_GUARD_S):
                break
            traced = trace and index % 2 == 0
            with installed(recorder) if traced else nullcontext():
                scenarios = load_pass(workload, seed, index)
                if traced:
                    with recorder.span("bench.pass"):
                        result = run_pass(scenarios, work / f"p{index}", threads)
                else:
                    result = run_pass(scenarios, work / f"p{index}", threads)
            walls[traced].append(result.wall)
            if not traced:
                cpus.append(result.cpu)
            check_pass(result, index, threads, tally)
            # deleting at once keeps written pages from piling up between passes
            shutil.rmtree(work / f"p{index}")
            index += 1
        # the peak over every pass; read before the once-per-run checks, whose
        # rerun at another thread count lays out its temporaries differently
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_once(warm, threads, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    q1, med, q3 = _quartiles(walls[False])
    summary = {"env": env, "pass_walls": walls[False],
               "pass_s_quartiles": [q1, med, q3],
               "setup_s_samples": setup,
               "fail_ratio": f"{len(tally.failed)}/{tally.attempted}",
               "run_wall_s": time.perf_counter() - started}
    if trace:
        traced_mean = statistics.fmean(walls[True])
        metrics = layer_metrics(recorder.spans, len(walls[True]))
        selfs = sum(metrics[f"{layer}.self_s"] for layer in
                    ("cli", "wellcore", "wigner", "specbench", "emit"))
        metrics["trace.pass_s"] = statistics.median(walls[True])
        metrics["trace.untraced_pass_s"] = med
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - med
        metrics["trace.self_sum_share"] = selfs / traced_mean
        metrics["trace.spans"] = len(recorder.spans) / len(walls[True])
        summary["traced_passes"] = len(walls[True])
        OUT.mkdir(exist_ok=True)
        summary["spans_file"] = str(OUT / f"trace-{workload}-seed{seed}.jsonl")
        recorder.dump(summary["spans_file"])
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {"setup_s": statistics.median(setup), "pass_s": med,
                   "pass_cpu_s": statistics.median(cpus), "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    return {"summary": summary, "tally": tally,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="pass time to accumulate before stopping")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "doublewell" / "__init__.py").is_file():
        print(f"error: no doublewell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    tally = res["tally"]
    for line in tally.messages[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    for key, value in res["summary"].items():
        print(f"{key}: {json.dumps(value)}")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not tally.failed, "attempted": tally.attempted,
                      "failed": len(tally.failed), "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
