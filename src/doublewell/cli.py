"""Command-line front end and scenario runner.

Verbs: ``potential``, ``states``, ``evolve``, ``wigner``, ``marginals``,
``negativity``, ``fringes``, ``bench``, and ``scenario <file>``.  A verb
is a one-output scenario: its flags are scenario keys (``--grid-nx`` is
``grid.n_x``, see ``_FLAGS``), parsed and validated exactly as a
``.scn`` file is, so a bad value fails before anything is written and
the message names the flag.  Every verb then runs through
:func:`run_scenario`, writes unprefixed files and a ``manifest.txt``.
Every run is single-threaded and deterministic: identical inputs produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import emit
from .errors import DoubleWellError, InvalidParameters, ScenarioValidationError
from .scenario import (FIELD_OUTPUTS, Scenario, parse_scenario,
                       scenario_from_pairs)
from .specbench import benchmark
from .wellcore import SuperpositionState, WellModel
from .wigner import (
    Band,
    MomentumRows,
    NegativityRows,
    PositionRows,
    fringe_spacings,
    interference_midpoint,
    wigner_fft,  # noqa: F401 -- kept importable here; wellbench/spans.py patches it
    wigner_reduce,
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
        self.record(emit.write_text(self.out_dir / name, content))

    def manifest(self) -> Path:
        return emit.write_manifest(self.out_dir / "manifest.txt", self.entries)

    def discard(self):
        # a failed run leaves none of the files it wrote
        for name in self.entries:
            (self.out_dir / name).unlink(missing_ok=True)


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


def _emit_wigner(session: _Session, prefix: str, bands):
    for i, band in enumerate(bands):
        session.csv_matrix(f"{prefix}wigner_t{i}.csv", "x", "p",
                           band.grid.x_axis(), band.grid.p_axis(), band.values)
        session.heatmap(f"{prefix}wigner_t{i}.ppm", band)


def _emit_marginals(session: _Session, prefix: str, grid, positions, momenta,
                    p_max: float, plot_compat: bool):
    xs, ps = grid.x_axis(), grid.p_axis()
    keep = np.abs(ps) <= p_max
    for i, (position, ptilde) in enumerate(zip(positions, momenta)):
        session.csv_columns(f"{prefix}marginal_x_t{i}.csv", ["x", "P"],
                            xs, position)
        emitted = ptilde[keep] / 3.0 if plot_compat else ptilde[keep]
        session.csv_columns(f"{prefix}marginal_p_t{i}.csv", ["p", "Ptilde"],
                            ps[keep], emitted)


def _emit_negativity(session: _Session, prefix: str, reports, times):
    session.csv_columns(f"{prefix}negativity.csv",
                        ["time", "negative_volume", "min_value", "min_x", "min_p"],
                        list(times), [r.negative_volume for r in reports],
                        [r.min_value for r in reports],
                        [r.min_location[0] for r in reports],
                        [r.min_location[1] for r in reports])


def _fringe_rows(state: SuperpositionState, xs, times, band: float, n_y: int):
    # only the column nearest x0 is transformed
    x0 = 0.0 if state.model.kind == "symmetric" else interference_midpoint(state)
    spacings = fringe_spacings(state, xs, x0, times, band, n_y=n_y)
    return [(state.model.delta_e, t, x0, s) for t, s in zip(times, spacings)]


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
    with identical inputs produce byte-identical files.  A run that
    raises removes the files it wrote.

    ``threads`` is kept only because the benchmark harness passes it.  A
    value below 1 raises :class:`InvalidParameters`; any other value is
    ignored.  It goes with the benchmark re-anchor in ROADMAP.md, which
    drops the harness's thread-count check.
    """
    if threads < 1:
        raise InvalidParameters(f"threads: must be >= 1, got {threads}")
    if not isinstance(scenario, Scenario):
        scenario = parse_scenario(scenario)
    session = _Session(out_dir)
    try:
        _emit_scenario(session, scenario)
        session.manifest()
    except BaseException:
        session.discard()
        raise
    return dict(session.entries)


def _emit_scenario(session: _Session, scenario: Scenario):
    # writes every artifact of the scenario except manifest.txt
    fringe_rows = []
    # each field output reduces every frame in cache inside one transform
    # per model; negativity goes last, as it clamps the block in place
    reducers = [r for out, rs in (("wigner", [Band(scenario.p_max)]),
                                  ("marginals", [PositionRows, MomentumRows]),
                                  ("negativity", [NegativityRows]))
                if out in scenario.outputs for r in rs]
    needs_times = FIELD_OUTPUTS & set(scenario.outputs) or "evolve" in scenario.outputs
    base = scenario.file_prefix()

    for sweep_value in scenario.sweep_values():
        model = WellModel.build(scenario.well_params(sweep_value),
                                tail_rel=scenario.tail_rel)
        prefix = scenario.file_prefix(sweep_value)

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
        field_xs = np.linspace(-model.L, model.L, scenario.n_x)
        if reducers:
            grid, frames = wigner_reduce(state, field_xs, times, reducers,
                                         n_y=scenario.n_y)
            # one column of results per reducer, in the order built above
            results = iter(zip(*frames))
            if "wigner" in scenario.outputs:
                _emit_wigner(session, prefix, next(results))
            if "marginals" in scenario.outputs:
                _emit_marginals(session, prefix, grid, next(results),
                                next(results), scenario.p_max,
                                scenario.plot_compat)
            if "negativity" in scenario.outputs:
                _emit_negativity(session, prefix, next(results), times)
        if "fringes" in scenario.outputs:
            fringe_rows.extend(_fringe_rows(state, field_xs, times,
                                            scenario.fringe_band, scenario.n_y))

    if fringe_rows:
        session.csv_columns(f"{base}fringes.csv",
                            ["delta_e", "time", "x0", "spacing"],
                            *(list(col) for col in zip(*fringe_rows)))


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

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


def _parses_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    # argparse reads a token such as -1e0 as a flag (its negative-number
    # pattern covers only plain decimals), so a scenario-key flag and a
    # following token that parses as a float become --flag=value
    out = []
    for token in argv:
        if out and out[-1] in _FLAGS and _parses_as_float(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = vars(parser.parse_args(_join_negative_values(argv)))

    try:
        if args["verb"] == "scenario":
            scenario = parse_scenario(args["file"])
        else:
            pairs = {key: args[key] for key in _LABELS if args.get(key) is not None}
            pairs["outputs"] = args["verb"]
            scenario = scenario_from_pairs(pairs, "", _LABELS)
        manifest = run_scenario(scenario, args["out_dir"])
    except DoubleWellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{len(manifest)} artifact(s) in {args['out_dir']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
