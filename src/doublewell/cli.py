"""Command-line front end and scenario runner.

Verbs: ``potential``, ``states``, ``evolve``, ``wigner``, ``marginals``,
``negativity``, ``fringes``, ``bench``, and ``scenario <file>``.  Every
run is deterministic: identical inputs produce byte-identical output
files, and ``--threads`` only changes speed, never bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import emit
from .errors import DoubleWellError, InvalidParameters, ScenarioValidationError
from .scenario import (
    FIELD_OUTPUTS,
    Scenario,
    parse_scenario,
    parse_scenario_text,
    _parse_angle,
    _parse_time,
)
from .specbench import benchmark
from .wellcore import (
    AsymmetricWellParams,
    SuperpositionState,
    SymmetricWellParams,
    WellModel,
)
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
# emission helpers shared by verbs and the scenario runner
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
        path = emit.write_manifest(self.out_dir / "manifest.txt", self.entries)
        return path


def _sample_axis(model: WellModel, n_x: int, x_max: float | None) -> np.ndarray:
    half = x_max if x_max is not None else model.L
    return np.linspace(-half, half, n_x)


def _emit_potential(session: _Session, prefix: str, model: WellModel, xs):
    session.csv_columns(f"{prefix}potential.csv", ["x", "V", "chi", "phi"],
                        xs, model.potential(xs), model.chi(xs), model.phi(xs))


def _emit_states(session: _Session, prefix: str, model: WellModel, xs):
    session.csv_columns(f"{prefix}states.csv", ["x", "psi0", "psi1"],
                        xs, *model.states(xs))


def _emit_times(session: _Session, prefix: str, times):
    session.csv_columns(f"{prefix}times.csv", ["index", "time"],
                        np.arange(len(times), dtype=float), np.asarray(times))


def _compute_fields(state: SuperpositionState, times, n_x: int, n_y: int,
                    threads: int):
    xs = np.linspace(-state.model.L, state.model.L, n_x)
    return wigner_frames(state, xs, times, n_y=n_y, threads=threads)


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
    rows = [[], [], [], [], []]
    for t, field in zip(times, fields):
        rep = negativity(field)
        rows[0].append(t)
        rows[1].append(rep.negative_volume)
        rows[2].append(rep.min_value)
        rows[3].append(rep.min_location[0])
        rows[4].append(rep.min_location[1])
    session.csv_columns(f"{prefix}negativity.csv",
                        ["time", "negative_volume", "min_value", "min_x", "min_p"],
                        *rows)


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
    ``manifest.txt`` with one sha-256 digest per file.  Repeated runs
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

    for sweep_value in scenario.sweep_values():
        model = WellModel.build(scenario.well_params(sweep_value),
                                tail_rel=scenario.tail_rel)
        prefix = f"{scenario.name}_"
        if sweep_value is not None:
            prefix = f"{scenario.name}_dE{sweep_value:g}_"

        xs = _sample_axis(model, scenario.n_x, scenario.x_max)
        if "potential" in scenario.outputs:
            _emit_potential(session, prefix, model, xs)
        if "states" in scenario.outputs:
            _emit_states(session, prefix, model, xs)
        if "bench" in scenario.outputs:
            _emit_bench(session, prefix, model, scenario.bench_ladder)

        if needs_fields:
            state = SuperpositionState(model, scenario.theta)
            period = state.beat_period()
            times = [spec.resolve(period) for spec in scenario.times]
            fields = _compute_fields(state, times, scenario.n_x,
                                     scenario.n_y, threads)
            _emit_times(session, prefix, times)
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
        session.csv_columns(f"{scenario.name}_fringes.csv",
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


def _well_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("--well", choices=("symmetric", "asymmetric"),
                        required=True, help="well family")
    parser.add_argument("--e0", type=float, required=True, help="ground energy")
    parser.add_argument("--e1", type=float, help="first excited energy (symmetric)")
    parser.add_argument("--alpha", type=float, help="asymmetry (asymmetric)")
    parser.add_argument("--beta", type=float, help="inverse length scale (asymmetric)")
    parser.add_argument("--delta-e", type=float, help="energy splitting (asymmetric)")
    parser.add_argument("--tail-rel", type=float, default=1e-10,
                        help="tail threshold fixing the domain halfwidth")


def _common_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--grid-nx", type=int, default=256, help="x samples")
    parser.add_argument("--grid-ny", type=int, default=1024,
                        help="correlation lattice size (power of two)")
    parser.add_argument("--p-max", type=float, default=5.0,
                        help="momentum band kept in emitted files")
    parser.add_argument("--theta", default="pi/4",
                        help="weighting angle (float or pi fraction)")
    parser.add_argument("--times", default="0",
                        help="comma list: absolute or T fractions (T/8, 0.25T)")
    parser.add_argument("--threads", type=_thread_count, default=1,
                        help="worker threads (speed only, never output bytes)")


def _model_from_args(args) -> WellModel:
    if args.well == "symmetric":
        if args.e1 is None:
            raise SystemExit("--e1 is required for a symmetric well")
        params = SymmetricWellParams(e0=args.e0, e1=args.e1)
    else:
        if args.alpha is None or args.beta is None or args.delta_e is None:
            raise SystemExit(
                "--alpha, --beta, and --delta-e are required for an asymmetric well")
        params = AsymmetricWellParams(alpha=args.alpha, beta=args.beta,
                                      e0=args.e0, delta_e=args.delta_e)
    return WellModel.build(params, tail_rel=args.tail_rel)


def _state_from_args(args, model: WellModel) -> SuperpositionState:
    return SuperpositionState(model, _parse_angle(args.theta, "--theta"))


def _times_from_args(args, state: SuperpositionState):
    period = state.beat_period()
    return [_parse_time(tok.strip(), "--times").resolve(period)
            for tok in args.times.split(",") if tok.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="doublewell",
        description="Double-well tunneling states and Wigner phase-space datasets")
    sub = parser.add_subparsers(dest="verb", required=True)

    verbs = {}
    for name, help_text in (
            ("potential", "emit x,V,chi,phi samples"),
            ("states", "emit x,psi0,psi1 samples"),
            ("evolve", "emit |Psi(x,t)|^2 per time"),
            ("wigner", "emit Wigner grids and heatmaps per time"),
            ("marginals", "emit position/momentum marginals per time"),
            ("negativity", "emit negativity table over times"),
            ("fringes", "emit fringe-spacing table"),
            ("bench", "emit eigensolver benchmark report")):
        p = sub.add_parser(name, help=help_text)
        _well_arguments(p)
        _common_arguments(p)
        verbs[name] = p
    verbs["bench"].add_argument("--ladder", default="751,1501,3001",
                                help="comma list of lattice sizes")

    p_scn = sub.add_parser("scenario", help="run a scenario file")
    p_scn.add_argument("file", help="path to a key=value scenario file")
    p_scn.add_argument("--out-dir", default="out")
    p_scn.add_argument("--threads", type=_thread_count, default=1,
                       help="worker threads (speed only, never output bytes)")

    args = parser.parse_args(argv)

    try:
        if args.verb == "scenario":
            manifest = run_scenario(args.file, args.out_dir, threads=args.threads)
            print(f"{len(manifest)} artifact(s) in {args.out_dir}")
            return 0

        session = _Session(args.out_dir)
        model = _model_from_args(args)
        if args.verb == "potential":
            _emit_potential(session, "", model, _sample_axis(model, args.grid_nx, None))
        elif args.verb == "states":
            _emit_states(session, "", model, _sample_axis(model, args.grid_nx, None))
        elif args.verb == "bench":
            ladder = [int(tok) for tok in args.ladder.split(",") if tok.strip()]
            _emit_bench(session, "", model, ladder)
        else:
            state = _state_from_args(args, model)
            times = _times_from_args(args, state)
            if args.verb == "evolve":
                xs = _sample_axis(model, args.grid_nx, None)
                for i, t in enumerate(times):
                    session.csv_columns(f"evolve_t{i}.csv", ["x", "P"],
                                        xs, state.density(xs, t))
                _emit_times(session, "", times)
            else:
                fields = _compute_fields(state, times, args.grid_nx,
                                         args.grid_ny, args.threads)
                _emit_times(session, "", times)
                if args.verb == "wigner":
                    _emit_wigner(session, "", fields, args.p_max)
                elif args.verb == "marginals":
                    _emit_marginals(session, "", fields, args.p_max, False)
                elif args.verb == "negativity":
                    _emit_negativity(session, "", fields, times)
                elif args.verb == "fringes":
                    rows = _fringe_rows(state, fields, times, 4.0)
                    session.csv_columns("fringes.csv",
                                        ["delta_e", "time", "x0", "spacing"],
                                        *(list(col) for col in zip(*rows)))
        print(f"{len(session.entries)} artifact(s) in {args.out_dir}")
        return 0
    except DoubleWellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
