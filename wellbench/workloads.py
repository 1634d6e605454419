"""Seeded scenario generators for the benchmark workloads.

Every pass of every workload gets freshly drawn well parameters, keyed by
(workload, seed, pass index), so no model repeats within a run and a
cross-call cache cannot pass for a speed-up.  Only the standard library is
used here, so the setup probe can time ``import doublewell`` cleanly.

A pass is a list of ``(name, scenario_text)`` pairs; the benchmark feeds
each one through ``parse_scenario_text`` and ``run_scenario``.  Why each
workload exists is recorded in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BEAT_FRAMES = 48
CATALOG_MODELS = 80


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    make_pass: Callable[[random.Random, Path], list[tuple[str, str]]]


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds hash through sha512, so the stream is stable across runs
    return random.Random(f"{workload}/{seed}/{index}")


def _num(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# figures: the shipped scenarios with jittered energies
# ---------------------------------------------------------------------------

_KEY_RE = re.compile(r"^\s*([\w.]+)\s*=\s*(.*?)\s*$")
# relative energy jitter; small enough that every shipped fringe ladder
# and mass check still holds
FIGURE_JITTER = 0.01


def jitter_scenario(text: str, rng: random.Random) -> str:
    """Shift the energies of a shipped scenario by a small drawn amount.

    Symmetric: E0 scales by (1+e) and the splitting E1-E0 by (1+e').
    Asymmetric: E0 moves by e (it only offsets V) and delta_e scales by
    (1+e').  Every sweep splitting scales by its own (1+e_k).
    """
    pairs = {}
    for line in text.splitlines():
        m = _KEY_RE.match(line.split("#", 1)[0])
        if m:
            pairs[m.group(1)] = m.group(2)

    def eps() -> float:
        return rng.uniform(-FIGURE_JITTER, FIGURE_JITTER)

    new = {}
    e0 = float(pairs["well.e0"])
    if pairs["well.kind"] == "symmetric":
        new["well.e0"] = e0 * (1.0 + eps())
        if "well.e1" in pairs:
            split = float(pairs["well.e1"]) - e0
            new["well.e1"] = new["well.e0"] + split * (1.0 + eps())
    else:
        new["well.e0"] = e0 + eps()
        if "well.delta_e" in pairs:
            new["well.delta_e"] = float(pairs["well.delta_e"]) * (1.0 + eps())
    if "sweep.delta_e" in pairs:
        new["sweep.delta_e"] = ",".join(
            _num(float(v) * (1.0 + eps())) for v in pairs["sweep.delta_e"].split(","))

    out = []
    for line in text.splitlines():
        m = _KEY_RE.match(line.split("#", 1)[0])
        if m and m.group(1) in new:
            value = new[m.group(1)]
            line = f"{m.group(1)} = {value if isinstance(value, str) else _num(value)}"
        out.append(line)
    return "\n".join(out) + "\n"


def figures_pass(rng: random.Random, scenario_dir: Path) -> list[tuple[str, str]]:
    return [(path.stem, jitter_scenario(path.read_text(encoding="utf-8"), rng))
            for path in sorted(scenario_dir.glob("*.scn"))]


# ---------------------------------------------------------------------------
# beat_series: one near-degenerate symmetric well sampled across a beat
# ---------------------------------------------------------------------------

def beat_series_pass(rng: random.Random, scenario_dir: Path) -> list[tuple[str, str]]:
    e0 = rng.uniform(-1.5, -0.7)
    e1 = e0 * (1.0 - rng.uniform(0.0005, 0.005))
    times = ",".join(["0"] + [f"{k}T/{BEAT_FRAMES}" for k in range(1, BEAT_FRAMES)])
    return [("beat", f"""\
well.kind = symmetric
well.e0 = {_num(e0)}
well.e1 = {_num(e1)}
theta = pi/4
times = {times}
grid.n_x = 256
grid.n_y = 1024
bench.ladder = 751,1501
outputs = negativity,bench
""")]


# ---------------------------------------------------------------------------
# large_grid: asymmetric splitting sweep on a lattice far above L2
# ---------------------------------------------------------------------------

def large_grid_pass(rng: random.Random, scenario_dir: Path) -> list[tuple[str, str]]:
    splits = [rng.uniform(0.45, 0.55), rng.uniform(3.8, 4.2), rng.uniform(7.5, 8.5)]
    return [("large", f"""\
well.kind = asymmetric
well.alpha = {_num(rng.uniform(0.87, 0.92))}
well.beta = {_num(rng.uniform(0.97, 1.03))}
well.e0 = {_num(rng.uniform(-0.5, 0.5))}
sweep.delta_e = {",".join(_num(s) for s in splits)}
theta = pi/4
times = T/4
grid.n_x = 512
grid.n_y = 4096
grid.p_max = 6
fringes.p_band = 6
bench.ladder = 751,1501
outputs = fringes,bench
""")]


# ---------------------------------------------------------------------------
# model_catalog: many small models, one small Wigner field per pass
# ---------------------------------------------------------------------------

def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n draws from [lo, hi], one per equal-width stratum, in shuffled order."""
    draws = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(draws)
    return draws


def model_catalog_pass(rng: random.Random, scenario_dir: Path) -> list[tuple[str, str]]:
    # Latin-hypercube draws: every pass covers each parameter range evenly,
    # so pass time follows the code and the host, not the luck of the draw
    half = CATALOG_MODELS // 2
    sym_e0, sym_gap = _strata(rng, -1.5, -0.5, half), _strata(rng, 0.05, 0.5, half)
    alpha, beta = _strata(rng, -0.9, 0.9, half), _strata(rng, 0.7, 1.5, half)
    asym_e0, delta_e = _strata(rng, -1.0, 1.0, half), _strata(rng, 0.5, 6.0, half)
    out = []
    for k in range(CATALOG_MODELS):
        j = k // 2
        if k % 2 == 0:
            well = (f"well.kind = symmetric\nwell.e0 = {_num(sym_e0[j])}\n"
                    f"well.e1 = {_num(sym_e0[j] * (1.0 - sym_gap[j]))}\n")
        else:
            well = (f"well.kind = asymmetric\n"
                    f"well.alpha = {_num(alpha[j])}\n"
                    f"well.beta = {_num(beta[j])}\n"
                    f"well.e0 = {_num(asym_e0[j])}\n"
                    f"well.delta_e = {_num(delta_e[j])}\n")
        outputs = "outputs = potential,states,bench\n"
        if k == CATALOG_MODELS - 1:
            outputs = ("grid.n_x = 128\ngrid.n_y = 256\n"
                       "outputs = potential,states,bench,negativity\n")
        out.append((f"cat{k:02d}", well + outputs))
    return out


# Every workload runs at threads=1.  At threads=2 large_grid kept both
# vCPUs of the shared host busy, and its pass wall time then spread 21-25%
# across runs of the same code while its CPU time stayed within bound; one
# thread leaves a vCPU for everything else, so wall time tracks CPU time.
# The thread pool is still exercised by the once-per-run 1<->2 byte check.
WORKLOADS = {w.name: w for w in (
    Workload("figures", 1, figures_pass),
    Workload("beat_series", 1, beat_series_pass),
    Workload("large_grid", 1, large_grid_pass),
    Workload("model_catalog", 1, model_catalog_pass),
)}


def pass_texts(workload: str, seed: int, index: int,
               scenario_dir: Path) -> list[tuple[str, str]]:
    """Scenario texts for one pass; identical for identical arguments."""
    return WORKLOADS[workload].make_pass(_rng(workload, seed, index), scenario_dir)
