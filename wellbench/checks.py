"""Output checks for the benchmark, run outside the timed region.

Each check returns a list of failure messages; an empty list means the
call passed.  The checks read the emitted artifacts back from disk, so a
corrupted or missing file is a failure even when ``run_scenario`` itself
returned normally.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from doublewell import (
    HBAR,
    PhaseSpaceGrid,
    SpectralBenchReport,
    SuperpositionState,
    WellModel,
    fringe_spacing,
    interference_midpoint,
    marginal_position,
    negativity,
    total_mass,
    wigner_direct,
    wigner_fft,
)

WIGNER_BOUND = 1.0 / (math.pi * HBAR)
MASS_TOL = 1e-6          # |mass - 1| on the full lattice
MARGINAL_TOL = 1e-6      # sup |Integral W dp - |Psi|^2|
NORM_TOL = 1e-6          # trapezoid norm and overlap of the emitted states
ENGINE_TOL = 1e-8        # sup |wigner_fft - wigner_direct| on shared nodes
BOUND_SLACK = 1e-12
# per-call frame recomputation is skipped above this many lattice cells;
# larger lattices get one recomputed frame per run instead
FRAME_CHECK_MAX_CELLS = 1 << 20
FIELD_OUTPUTS = {"wigner", "marginals", "negativity", "fringes"}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    # numpy parses shortest-repr decimals back to the exact same doubles
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def _prefix(scn, sweep_value) -> str:
    if sweep_value is None:
        return f"{scn.name}_"
    return f"{scn.name}_dE{sweep_value:g}_"


def _splitting(scn, sweep_value) -> float:
    params = scn.well_params(sweep_value)
    return params.e1 - params.e0


def _times(scn, sweep_value) -> list[float]:
    period = 2.0 * math.pi * HBAR / _splitting(scn, sweep_value)
    return [spec.resolve(period) for spec in scn.times]


def build_state(scn, sweep_value) -> SuperpositionState:
    model = WellModel.build(scn.well_params(sweep_value), tail_rel=scn.tail_rel)
    return SuperpositionState(model, scn.theta)


def expected_artifacts(scn) -> set[str]:
    """Artifact names a scenario must produce (manifest.txt excluded)."""
    names = set()
    outs = set(scn.outputs)
    for sv in scn.sweep_values():
        pre = _prefix(scn, sv)
        if "potential" in outs:
            names.add(f"{pre}potential.csv")
        if "states" in outs:
            names.add(f"{pre}states.csv")
        if "bench" in outs:
            names |= {f"{pre}bench_report.txt", f"{pre}bench_convergence.csv"}
        if outs & FIELD_OUTPUTS:
            names.add(f"{pre}times.csv")
            for i in range(len(scn.times)):
                if "wigner" in outs:
                    names |= {f"{pre}wigner_t{i}.csv", f"{pre}wigner_t{i}.ppm"}
                if "marginals" in outs:
                    names |= {f"{pre}marginal_x_t{i}.csv", f"{pre}marginal_p_t{i}.csv"}
            if "negativity" in outs:
                names.add(f"{pre}negativity.csv")
    if "fringes" in outs:
        names.add(f"{scn.name}_fringes.csv")
    return names


# ---------------------------------------------------------------------------
# per-call checks
# ---------------------------------------------------------------------------

def check_manifest(scn, out_dir: Path, returned: dict[str, str]) -> list[str]:
    """Manifest lists exactly the expected artifacts and every digest matches."""
    fails = []
    expected = expected_artifacts(scn)
    lines = (out_dir / "manifest.txt").read_text(encoding="utf-8").splitlines()
    listed = {}
    for line in lines:
        name, _, digest = line.partition("=sha256:")
        listed[name] = digest
    if lines != sorted(lines):
        fails.append("manifest.txt is not sorted by name")
    if set(listed) != expected:
        fails.append(f"manifest lists {sorted(set(listed) ^ expected)} unexpectedly")
    if listed != returned:
        fails.append("run_scenario returned a mapping that differs from manifest.txt")
    on_disk = {p.name for p in out_dir.iterdir()} - {"manifest.txt"}
    if on_disk != expected:
        fails.append(f"output directory holds {sorted(on_disk ^ expected)} unexpectedly")
    for name in sorted(set(listed) & on_disk):
        actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if actual != listed[name]:
            fails.append(f"{name}: digest mismatch")
    return fails


def _check_states(scn, pre, out_dir) -> list[str]:
    _, tab = _read_table(out_dir / f"{pre}states.csv")
    if tab.shape != (scn.n_x, 3):
        return [f"{pre}states.csv: shape {tab.shape}"]
    if scn.x_max is not None:
        return []  # a user-chosen window need not hold the whole state
    x, psi0, psi1 = tab.T
    fails = []
    for label, value, want in (("norm psi0", np.trapezoid(psi0 ** 2, x), 1.0),
                               ("norm psi1", np.trapezoid(psi1 ** 2, x), 1.0),
                               ("overlap", np.trapezoid(psi0 * psi1, x), 0.0)):
        if abs(value - want) > NORM_TOL:
            fails.append(f"{pre}states.csv: {label} {value!r}")
    return fails


def _check_bench(scn, pre, out_dir) -> list[str]:
    fails = []
    _, conv = _read_table(out_dir / f"{pre}bench_convergence.csv")
    if list(conv[:, 0]) != [float(n) for n in scn.bench_ladder]:
        fails.append(f"{pre}bench_convergence.csv: ladder {conv[:, 0]}")
    if not np.all(np.diff(conv[:, 2]) < 0.0):
        fails.append(f"{pre}bench_convergence.csv: abs_err_e0 does not fall with n")
    text = (out_dir / f"{pre}bench_report.txt").read_text(encoding="utf-8")
    report = SpectralBenchReport.from_mapping(
        dict(line.split("=", 1) for line in text.splitlines()))
    if report.n != scn.bench_ladder[-1] or report.abs_err_e0 != conv[-1, 2]:
        fails.append(f"{pre}bench_report.txt disagrees with the convergence table")
    return fails


def _check_fields(scn, sv, pre, out_dir, state) -> list[str]:
    fails = []
    times = _times(scn, sv)
    _, tab = _read_table(out_dir / f"{pre}times.csv")
    if list(tab[:, 1]) != times:
        fails.append(f"{pre}times.csv does not hold the resolved times")
    outs = set(scn.outputs)
    for i, t in enumerate(times):
        if "wigner" in outs:
            _, w = _read_table(out_dir / f"{pre}wigner_t{i}.csv")
            if w[:, 1:].min() < -WIGNER_BOUND - BOUND_SLACK:
                fails.append(f"{pre}wigner_t{i}.csv: min W below -1/(pi hbar)")
        if "marginals" in outs:
            _, m = _read_table(out_dir / f"{pre}marginal_x_t{i}.csv")
            mass = np.trapezoid(m[:, 1], m[:, 0])
            if abs(mass - 1.0) > MASS_TOL:
                fails.append(f"{pre}marginal_x_t{i}.csv: mass {mass!r}")
            gap = np.max(np.abs(m[:, 1] - state.density(m[:, 0], t)))
            if gap > MARGINAL_TOL:
                fails.append(f"{pre}marginal_x_t{i}.csv: |Psi|^2 gap {gap:.3e}")
    if "negativity" in outs:
        _, neg = _read_table(out_dir / f"{pre}negativity.csv")
        if list(neg[:, 0]) != times:
            fails.append(f"{pre}negativity.csv: time column")
        if np.any(neg[:, 1] < 0.0) or np.any(neg[:, 2] < -WIGNER_BOUND - BOUND_SLACK):
            fails.append(f"{pre}negativity.csv: volume < 0 or min W below bound")
    return fails


def _check_fringes(scn, out_dir) -> list[str]:
    _, tab = _read_table(out_dir / f"{scn.name}_fringes.csv")
    order = np.argsort(tab[:, 0])
    spacing = tab[order, 3]
    if not (np.all(spacing > 0.0) and np.all(np.diff(spacing) > 0.0)):
        return [f"{scn.name}_fringes.csv: spacing does not rise with delta_e"]
    return []


def check_frame(scn, sv, frame: int, out_dir: Path, threads: int,
                state: SuperpositionState | None = None) -> list[str]:
    """Recompute one Wigner frame and check it and the artifacts it feeds.

    Invariants: unit mass, position marginal equal to |Psi|^2, and
    min W >= -1/(pi hbar).  The negativity row and fringe row written for
    this frame must equal the values recomputed here, bit for bit.
    """
    state = state or build_state(scn, sv)
    t = _times(scn, sv)[frame]
    xs = np.linspace(-state.model.L, state.model.L, scn.n_x)
    field = wigner_fft(state, xs, t, n_y=scn.n_y, threads=threads)
    pre = _prefix(scn, sv)
    fails = []
    mass = total_mass(field)
    if abs(mass - 1.0) > MASS_TOL:
        fails.append(f"{pre}frame {frame}: mass {mass!r}")
    gap = np.max(np.abs(marginal_position(field) - state.density(xs, t)))
    if gap > MARGINAL_TOL:
        fails.append(f"{pre}frame {frame}: |Psi|^2 gap {gap:.3e}")
    if field.values.min() < -WIGNER_BOUND - BOUND_SLACK:
        fails.append(f"{pre}frame {frame}: min W below -1/(pi hbar)")
    if "negativity" in scn.outputs:
        _, neg = _read_table(out_dir / f"{pre}negativity.csv")
        rep = negativity(field)
        want = [t, rep.negative_volume, rep.min_value, *rep.min_location]
        if list(neg[frame]) != want:
            fails.append(f"{pre}negativity.csv row {frame} differs from recomputation")
    if "fringes" in scn.outputs:
        _, tab = _read_table(out_dir / f"{scn.name}_fringes.csv")
        row = scn.sweep_values().index(sv) * len(scn.times) + frame
        x0 = 0.0 if state.model.kind == "symmetric" else interference_midpoint(state)
        if tab[row, 3] != fringe_spacing(field, x0, scn.fringe_band):
            fails.append(f"{scn.name}_fringes.csv row {row} differs from recomputation")
    return fails


def check_call(scn, out_dir: Path, returned: dict[str, str], threads: int,
               frame_seed: int) -> list[str]:
    """Every per-call check for one ``run_scenario`` result."""
    out_dir = Path(out_dir)
    fails = check_manifest(scn, out_dir, returned)
    if fails:
        return fails
    outs = set(scn.outputs)
    sweeps = scn.sweep_values()
    for sv in sweeps:
        pre = _prefix(scn, sv)
        if "states" in outs:
            fails += _check_states(scn, pre, out_dir)
        if "bench" in outs:
            fails += _check_bench(scn, pre, out_dir)
        if outs & FIELD_OUTPUTS:
            state = build_state(scn, sv)
            fails += _check_fields(scn, sv, pre, out_dir, state)
            # one recomputed frame per call keeps checking cheaper than the call
            if (scn.n_x * scn.n_y <= FRAME_CHECK_MAX_CELLS
                    and sv == sweeps[frame_seed % len(sweeps)]):
                frame = frame_seed % len(scn.times)
                fails += check_frame(scn, sv, frame, out_dir, threads, state)
    if "fringes" in outs:
        fails += _check_fringes(scn, out_dir)
    return fails


# ---------------------------------------------------------------------------
# once-per-run checks
# ---------------------------------------------------------------------------

def check_engines(scn) -> list[str]:
    """FFT path agrees with direct quadrature on 8 columns to 1e-8."""
    sv = scn.sweep_values()[0]
    state = build_state(scn, sv)
    t = _times(scn, sv)[0]
    L = state.model.L
    xs = np.linspace(-L, L, 8)
    fft = wigner_fft(state, xs, t, n_y=1024, check_mass=False)
    ps = fft.grid.p_axis()
    keep = np.abs(ps) <= 4.0
    grid = PhaseSpaceGrid(x_min=xs[0], x_max=xs[-1], n_x=xs.size,
                          p_min=float(ps[keep][0]), p_max=float(ps[keep][-1]),
                          n_p=int(keep.sum()))
    direct = wigner_direct(state, grid, t, y_halfwidth=L, n_y=1024, check_mass=False)
    gap = float(np.max(np.abs(direct.values - fft.values[:, keep])))
    return [] if gap < ENGINE_TOL else [f"{scn.name}: fft vs direct gap {gap:.3e}"]


def check_same_bytes(dir_a: Path, dir_b: Path) -> list[str]:
    """Two output directories hold byte-identical files."""
    names_a = sorted(p.name for p in Path(dir_a).iterdir())
    names_b = sorted(p.name for p in Path(dir_b).iterdir())
    if names_a != names_b:
        return ["thread-count runs wrote different file sets"]
    return [f"{name}: bytes differ between thread counts" for name in names_a
            if (Path(dir_a) / name).read_bytes() != (Path(dir_b) / name).read_bytes()]
