"""Command-line front end and scenario runner.

Verbs: ``potential``, ``states``, ``evolve``, ``wigner``, ``marginals``,
``negativity``, ``fringes``, ``bench``, and ``scenario <file>``.  A verb
is a one-output scenario: its flags are scenario keys (``--grid-nx`` is
``grid.n_x``, see ``_FLAGS``), parsed and validated exactly as a
``.scn`` file is, so a bad value fails before anything is written and
the message names the flag.  Every verb then runs through
:func:`run_scenario`, writes unprefixed files and a ``manifest.txt``.
Every run is deterministic: identical inputs produce byte-identical
output files, and ``--threads`` only changes speed, never bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import emit
from .errors import DoubleWellError, InvalidParameters, ScenarioValidationError
from .scenario import FIELD_OUTPUTS, Scenario, parse_scenario, scenario_from_pairs
from .specbench import benchmark
from .wellcore import SuperpositionState, WellModel
from .wigner import (
    crop_momentum,
    fringe_spacing,
    interference_midpoint,
    marginal_momentum,
    marginal_position,
    wigner_fft,  # noqa: F401 -- kept importable here; wellbench/spans.py patches it
    wigner_frames,
)

__all__ = ["main", "run_scenario"]


# ---------------------------------------------------------------------------
# emission helpers of the scenario runner
# ---------------------------------------------------------------------------

class _Session:
    """Collects written files and their digests for the manifest."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.entries: dict[str, str] = {}

    def record(self, path: Path):
        self.entries[path.name] = emit.sha256_hex(path)

    def csv_columns(self, name: str, headers, *columns):
        self.record(emit.write_csv_columns(self.out_dir / name, headers, *columns))

    def csv_matrix(self, name: str, *args):
        self.record(emit.write_csv_matrix(self.out_dir / name, *args))

    def heatmap(self, name: str, field):
        self.record(emit.write_heatmap(self.out_dir / name, field))

    def text(self, name: str, content: str):
        path = self.out_dir / name
        path.write_text(content, encoding="utf-8")
        self.record(path)

    def manifest(self) -> Path:
        return emit.write_manifest(self.out_dir / "manifest.txt", self.entries)


def _emit_potential(session: _Session, prefix: str, model: WellModel, xs):
    session.csv_columns(f"{prefix}potential.csv", ["x", "V", "chi", "phi"],
                        xs, model.potential(xs), model.chi(xs), model.phi(xs))


def _emit_states(session: _Session, prefix: str, model: WellModel, xs):
    session.csv_columns(f"{prefix}states.csv", ["x", "psi0", "psi1"],
                        xs, *model.states(xs))


def _emit_times(session: _Session, prefix: str, times):
    session.csv_columns(f"{prefix}times.csv", ["index", "time"],
                        np.arange(len(times), dtype=float), np.asarray(times))


def _emit_evolve(session: _Session, prefix: str, state: SuperpositionState,
                 xs, times):
    for i, t in enumerate(times):
        session.csv_columns(f"{prefix}evolve_t{i}.csv", ["x", "P"],
                            xs, state.density(xs, t))


def _emit_wigner(session: _Session, prefix: str, fields, p_max: float):
    for i, field in enumerate(fields):
        sub = crop_momentum(field, p_max)
        session.csv_matrix(f"{prefix}wigner_t{i}.csv", "x", "p",
                           sub.grid.x_axis(), sub.grid.p_axis(), sub.values)
        session.heatmap(f"{prefix}wigner_t{i}.ppm", sub)


def _emit_marginals(session: _Session, prefix: str, fields, p_max: float,
                    plot_compat: bool):
    for i, field in enumerate(fields):
        xs = field.grid.x_axis()
        session.csv_columns(f"{prefix}marginal_x_t{i}.csv", ["x", "P"],
                            xs, marginal_position(field))
        ps = field.grid.p_axis()
        ptilde = marginal_momentum(field)
        keep = np.abs(ps) <= p_max
        emitted = ptilde[keep] / 3.0 if plot_compat else ptilde[keep]
        session.csv_columns(f"{prefix}marginal_p_t{i}.csv", ["p", "Ptilde"],
                            ps[keep], emitted)


def _emit_negativity(session: _Session, prefix: str, fields, times):
    from .wigner import negativity
    reports = [negativity(field) for field in fields]
    session.csv_columns(f"{prefix}negativity.csv",
                        ["time", "negative_volume", "min_value", "min_x", "min_p"],
                        list(times), [r.negative_volume for r in reports],
                        [r.min_value for r in reports],
                        [r.min_location[0] for r in reports],
                        [r.min_location[1] for r in reports])


def _fringe_rows(state: SuperpositionState, fields, times, band: float):
    x0 = 0.0 if state.model.kind == "symmetric" else interference_midpoint(state)
    rows = []
    for t, field in zip(times, fields):
        rows.append((state.model.delta_e, t, x0, fringe_spacing(field, x0, band)))
    return rows


def _emit_bench(session: _Session, prefix: str, model: WellModel, ladder):
    if not ladder:
        raise ScenarioValidationError("bench.ladder: must be non-empty for bench output")
    reports = [benchmark(model, n) for n in ladder]
    final = reports[-1]
    lines = [f"{k}={v}" for k, v in final.as_mapping().items()]
    session.text(f"{prefix}bench_report.txt", "\n".join(lines) + "\n")
    session.csv_columns(f"{prefix}bench_convergence.csv",
                        ["n", "dx", "abs_err_e0", "abs_err_e1"],
                        [float(r.n) for r in reports],
                        [r.dx for r in reports],
                        [r.abs_err_e0 for r in reports],
                        [r.abs_err_e1 for r in reports])


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------

def run_scenario(scenario: Scenario | str | Path, out_dir: str | Path,
                 threads: int = 1) -> dict[str, str]:
    """Execute a scenario and return the manifest mapping name -> digest.

    Emits every requested artifact under ``out_dir`` plus a
    ``manifest.txt`` with one sha-256 digest per file; an empty
    ``scenario.name`` leaves the file names unprefixed.  Repeated runs
    with identical inputs produce byte-identical files for any
    ``threads`` value.
    """
    if threads < 1:
        raise InvalidParameters(f"threads: must be >= 1, got {threads}")
    if not isinstance(scenario, Scenario):
        scenario = parse_scenario(scenario)
    session = _Session(out_dir)
    fringe_rows = []
    needs_fields = FIELD_OUTPUTS & set(scenario.outputs)
    needs_times = needs_fields or "evolve" in scenario.outputs
    # an empty name means unprefixed files
    base = f"{scenario.name}_" if scenario.name else ""

    for sweep_value in scenario.sweep_values():
        model = WellModel.build(scenario.well_params(sweep_value),
                                tail_rel=scenario.tail_rel)
        prefix = base if sweep_value is None else f"{base}dE{sweep_value:g}_"

        half = scenario.x_max if scenario.x_max is not None else model.L
        xs = np.linspace(-half, half, scenario.n_x)
        if "potential" in scenario.outputs:
            _emit_potential(session, prefix, model, xs)
        if "states" in scenario.outputs:
            _emit_states(session, prefix, model, xs)
        if "bench" in scenario.outputs:
            _emit_bench(session, prefix, model, scenario.bench_ladder)
        if not needs_times:
            continue

        state = SuperpositionState(model, scenario.theta)
        period = state.beat_period()
        times = [spec.resolve(period) for spec in scenario.times]
        _emit_times(session, prefix, times)
        if "evolve" in scenario.outputs:
            _emit_evolve(session, prefix, state, xs, times)
        if needs_fields:
            fields = wigner_frames(state, np.linspace(-model.L, model.L, scenario.n_x),
                                   times, n_y=scenario.n_y, threads=threads)
            if "wigner" in scenario.outputs:
                _emit_wigner(session, prefix, fields, scenario.p_max)
            if "marginals" in scenario.outputs:
                _emit_marginals(session, prefix, fields, scenario.p_max,
                                scenario.plot_compat)
            if "negativity" in scenario.outputs:
                _emit_negativity(session, prefix, fields, times)
            if "fringes" in scenario.outputs:
                fringe_rows.extend(_fringe_rows(state, fields, times,
                                                scenario.fringe_band))

    if fringe_rows:
        session.csv_columns(f"{base}fringes.csv",
                            ["delta_e", "time", "x0", "spacing"],
                            *(list(col) for col in zip(*fringe_rows)))
    session.manifest()
    return dict(session.entries)


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# verb flag -> (scenario key, help); a verb's flags become the key = value
# pairs of a scenario whose only output is the verb
_FLAGS = {
    "--well": ("well.kind", "well family: symmetric or asymmetric"),
    "--e0": ("well.e0", "ground energy"),
    "--e1": ("well.e1", "first excited energy (symmetric)"),
    "--alpha": ("well.alpha", "asymmetry (asymmetric)"),
    "--beta": ("well.beta", "inverse length scale (asymmetric)"),
    "--delta-e": ("well.delta_e", "energy splitting (asymmetric)"),
    "--tail-rel": ("tail_rel", "tail threshold fixing the domain halfwidth"),
    "--grid-nx": ("grid.n_x", "x samples"),
    "--grid-ny": ("grid.n_y", "correlation lattice size (power of two)"),
    "--p-max": ("grid.p_max", "momentum band kept in emitted files"),
    "--theta": ("theta", "weighting angle (float or pi fraction)"),
    "--times": ("times", "comma list: absolute or T fractions (T/8, 0.25T)"),
    "--ladder": ("bench.ladder", "comma list of lattice sizes"),
}
_LABELS = {key: flag for flag, (key, _) in _FLAGS.items()}

_VERBS = {
    "potential": "emit x,V,chi,phi samples",
    "states": "emit x,psi0,psi1 samples",
    "evolve": "emit |Psi(x,t)|^2 per time",
    "wigner": "emit Wigner grids and heatmaps per time",
    "marginals": "emit position/momentum marginals per time",
    "negativity": "emit negativity table over times",
    "fringes": "emit fringe-spacing table",
    "bench": "emit eigensolver benchmark report",
}


def _run_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--threads", type=_thread_count, default=1,
                        help="worker threads (speed only, never output bytes)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="doublewell",
        description="Double-well tunneling states and Wigner phase-space datasets")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for flag, (key, flag_help) in _FLAGS.items():
            if flag != "--ladder" or verb == "bench":
                p.add_argument(flag, dest=key, metavar=key, help=flag_help)
        _run_arguments(p)
    p = sub.add_parser("scenario", help="run a scenario file")
    p.add_argument("file", help="path to a key=value scenario file")
    _run_arguments(p)
    args = vars(parser.parse_args(argv))

    try:
        if args["verb"] == "scenario":
            scenario = parse_scenario(args["file"])
        else:
            pairs = {key: args[key] for key in _LABELS if args.get(key) is not None}
            pairs["outputs"] = args["verb"]
            scenario = scenario_from_pairs(pairs, "", _LABELS)
        manifest = run_scenario(scenario, args["out_dir"], threads=args["threads"])
    except DoubleWellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{len(manifest)} artifact(s) in {args['out_dir']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
