"""Flat key=value scenario files.

One ``key = value`` pair per line; ``#`` starts a comment; nesting is
spelled with dotted keys (``well.kind``, ``grid.n_x``).  Unknown keys are
rejected, every number must be finite, and ``name`` (the prefix of every
output file) must be a plain file stem.  Angles accept plain floats or
``pi`` fractions ("pi/4", "3*pi/8"); times accept absolute floats or
fractions of the beat period ("T/8", "0.25T", "T").  A fraction needs a
nonzero divisor and a finite value.  The CLI validates its flags as the
same key/value pairs, through :func:`scenario_from_pairs`.

Each run's well is built and validated once, here, and kept on the
:class:`Scenario` with the run's file prefix (:class:`Run`); the runner
builds its models from those.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    InvalidGrid,
    InvalidParameters,
    ScenarioParseError,
    ScenarioValidationError,
)
from .specbench import MAX_LATTICE_POINTS, MIN_LATTICE_POINTS
from .wellcore import AsymmetricWellParams, SymmetricWellParams, WellParams
from .wigner import (FRAME_BUDGET_BYTES, Band, MomentumRows, NegativityRows,
                     PositionRows, check_frame_budget)

__all__ = ["Run", "Scenario", "TimeSpec", "parse_scenario",
           "parse_scenario_text", "scenario_from_pairs"]

OUTPUT_KINDS = ("potential", "states", "evolve", "wigner", "marginals",
                "negativity", "fringes", "bench")
# outputs read from the Wigner transform of every time
FIELD_OUTPUTS = frozenset({"wigner", "marginals", "negativity", "fringes"})

# Doubles the runner holds per x sample at the peak of its heaviest
# per-x output, the potential table (tracemalloc, 2**14 and 2**16 samples
# on both families: 43.8; states 36.7, evolve 26.5).
_X_DOUBLES = 48

# Largest grid.n_x: every output's x samples fit FRAME_BUDGET_BYTES.
MAX_GRID_POINTS = FRAME_BUDGET_BYTES // (8 * _X_DOUBLES)

# Most bytes the per-time files and rows of one run may write, over every
# time and sweep value.  It admits every wigner run whose frames fit
# FRAME_BUDGET_BYTES: a frame cell costs 8 bytes there, and at most
# _VALUE_BYTES of CSV plus 3 of PPM here.
WRITE_BUDGET_BYTES = 1 << 32

# Longest emitted value: a double's shortest repr ('-2.2250738585072014e-308'
# has 24 characters) and its separator.
_VALUE_BYTES = 25

# Fixed text counted per time: the headers of that time's files ('x,P',
# 'p,Ptilde', the PPM header) and of the run's tables, with room to spare.
_HEADER_BYTES = 128


def _written_bytes(scn) -> int:
    """Upper bound on what the per-time files of ``scn`` write: for every
    sweep value and time, its rows of times.csv, negativity.csv and
    fringes.csv, and its evolve, marginal and wigner files, with n_y
    bounding the width of the emitted momentum band."""
    outputs = set(scn.outputs)
    n_x, n_y = scn.n_x, scn.n_y
    values = {"evolve": 2 * n_x, "wigner": (n_x + 1) * (n_y + 1),
              "marginals": 2 * (n_x + n_y), "negativity": 5, "fringes": 4}
    per_time = sum(v for out, v in values.items() if out in outputs)
    if not per_time:
        return 0
    pixels = 3 * n_x * n_y if "wigner" in outputs else 0
    # a times.csv row, the outputs' values, the heatmap and the headers
    per_time = _VALUE_BYTES * (2 + per_time) + pixels + _HEADER_BYTES
    return len(scn.runs) * len(scn.times) * per_time

_KNOWN_KEYS = {
    "name", "well.kind", "well.e0", "well.e1", "well.alpha", "well.beta",
    "well.delta_e", "theta", "times", "sweep.delta_e", "grid.n_x",
    "grid.n_y", "grid.p_max", "grid.x_max", "tail_rel", "outputs",
    "plot_compat", "bench.ladder", "fringes.p_band",
}

# well.kind -> (its splitting key, keys of the other family)
_FAMILY_KEYS = {
    "symmetric": ("well.e1", ("well.alpha", "well.beta", "well.delta_e")),
    "asymmetric": ("well.delta_e", ("well.e1",)),
}

_PI_RE = re.compile(r"^(?:(\d+(?:\.\d+)?)\*)?pi(?:/(\d+(?:\.\d+)?))?$")
_T_FRAC_RE = re.compile(r"^(?:(\d+(?:\.\d+)?)\*?)?T(?:/(\d+(?:\.\d+)?))?$")


@dataclass(frozen=True)
class TimeSpec:
    """Either an absolute time or a fraction of the beat period T."""

    value: float
    fraction_of_period: bool

    def resolve(self, period: float) -> float:
        return self.value * period if self.fraction_of_period else self.value


# Smallest c = delta_e / (4 beta**2) of an asymmetric well.  Below about
# 1e-305 the state is a spike far out at |beta x| ~ 350 that the domain
# search and the trapezoid cannot normalise (ConvergenceFailure); 1,000
# seeded draws of c in [1e-300, 1e-290] and beta in [1, 1e5] all built with
# unit mass.
MIN_ASYMMETRIC_C = 1e-300


@dataclass(frozen=True)
class Run:
    """One run of a scenario: its sweep value (``None`` without a sweep),
    the prefix of its files and its validated well."""

    sweep_value: float | None
    prefix: str
    params: WellParams


def _file_prefix(name: str, delta_e: float | None) -> str:
    base = f"{name}_" if name else ""
    return base if delta_e is None else f"{base}dE{delta_e:g}_"


@dataclass
class Scenario:
    """Validated scenario configuration, holding each run's well."""

    name: str
    runs: list[Run]
    theta: float
    times: list[TimeSpec]
    outputs: list[str]
    n_x: int
    n_y: int
    p_max: float
    x_max: float | None
    tail_rel: float
    plot_compat: bool
    bench_ladder: list[int]
    fringe_band: float

    def sweep_values(self) -> list[float | None]:
        """Per-run splitting values; [None] when no sweep is configured."""
        return [run.sweep_value for run in self.runs]

    def file_prefix(self, delta_e: float | None = None) -> str:
        """Prefix of one run's files: the name, then a sweep value to 6
        significant digits; an empty name adds nothing."""
        return _file_prefix(self.name, delta_e)

    def well_params(self, delta_e: float | None = None) -> WellParams:
        """The validated well of the run with sweep value ``delta_e``."""
        return {run.sweep_value: run.params for run in self.runs}[delta_e]

    def reducers(self) -> list:
        """The frame reducers of the field outputs, in the order their
        results are emitted; negativity goes last, as it clamps the block
        in place."""
        return [r for out, rs in (("wigner", [Band(self.p_max)]),
                                  ("marginals", [PositionRows, MomentumRows]),
                                  ("negativity", [NegativityRows]))
                if out in self.outputs for r in rs]


def _finite(value: float, raw: str, where: str) -> float:
    if not math.isfinite(value):
        raise ScenarioParseError(f"{where}: expected a finite number, got {raw!r}")
    return value


# Longest name, in UTF-8 bytes.  A file name holds at most 255 bytes
# (NAME_MAX), and the longest suffix the runner appends to the name is about
# 40: "_dE1.23457e-308_" and "marginal_p_t<7 digits>.csv".
_MAX_NAME_BYTES = 200


def _parse_name(raw: str) -> str:
    # the name prefixes every output file, so it must stay inside --out-dir
    # and be a file name the system can create; an empty name means no prefix
    if raw in (".", "..") or "/" in raw or "\\" in raw:
        raise ScenarioParseError(
            f"name: expected a plain file stem without path separators, got {raw!r}")
    if "\0" in raw:
        raise ScenarioParseError(
            f"name: expected a plain file stem without NUL bytes, got {raw!r}")
    size = len(raw.encode("utf-8", "surrogateescape"))
    if size > _MAX_NAME_BYTES:
        raise ScenarioParseError(
            f"name: expected a plain file stem of at most {_MAX_NAME_BYTES} "
            f"UTF-8 bytes, got {size}")
    return raw


def _parse_scaled(token: str, where: str, pattern: re.Pattern, unit: float,
                  hint: str) -> tuple[float, bool]:
    # (value, is_fraction) of a plain float or a "c*pi/d" / "cT/d" token,
    # whose value is c * unit / d
    m = pattern.match(token)
    if m:
        coeff = float(m.group(1)) if m.group(1) else 1.0
        div = float(m.group(2)) if m.group(2) else 1.0
        if div == 0.0:
            raise ScenarioParseError(f"{where}: division by zero in {token!r}")
        return _finite(coeff * unit / div, token, where), True
    try:
        value = float(token)
    except ValueError:
        raise ScenarioParseError(f"{where}: cannot parse {hint}") from None
    return _finite(value, token, where), False


def _parse_angle(token: str, where: str) -> float:
    return _parse_scaled(token, where, _PI_RE, math.pi,
                         f"angle {token!r} (use a float or a pi fraction like pi/4)")[0]


def _parse_time(token: str, where: str) -> TimeSpec:
    return TimeSpec(*_parse_scaled(token, where, _T_FRAC_RE, 1.0,
                                   f"time {token!r} (use a float, T/8, or 0.25T)"))


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioParseError(f"{where}: expected a number, got {raw!r}") from None
    return _finite(value, raw, where)


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioParseError(f"{where}: expected an integer, got {raw!r}") from None


def _parse_bool(raw: str, where: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ScenarioParseError(f"{where}: expected true/false, got {raw!r}")


def _read_pairs(text: str) -> dict[str, str]:
    # one known key per line, each at most once, with a non-empty value
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ScenarioParseError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ScenarioParseError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ScenarioParseError(f"line {lineno}: empty value for key {key!r}")
        pairs[key] = value
    return pairs


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    """Parse and validate scenario text; errors carry line/key context."""
    return scenario_from_pairs(_read_pairs(text), name, {})


def scenario_from_pairs(pairs: dict[str, str], name: str,
                        labels: dict[str, str]) -> Scenario:
    """Validate raw ``key -> value`` strings into a :class:`Scenario`.

    Every message starts with the offending key, spelled as ``labels``
    maps it (the CLI maps keys to its flags).  ``name`` is used unless
    ``pairs`` sets one; an empty name means output files carry no prefix.
    """

    def at(key: str) -> str:
        return labels.get(key, key)

    def need(key: str, why: str = "") -> str:
        if key not in pairs:
            raise ScenarioParseError(f"{at(key)}: required{why}")
        return pairs[key]

    kind = need("well.kind")
    if kind not in ("symmetric", "asymmetric"):
        raise ScenarioParseError(
            f"{at('well.kind')}: expected symmetric or asymmetric, got {kind!r}")
    outputs = [t.strip() for t in need("outputs").split(",") if t.strip()]
    if not outputs:
        raise ScenarioParseError("outputs: list is empty")
    for out in outputs:
        if out not in OUTPUT_KINDS:
            raise ScenarioParseError(
                f"outputs: unknown output {out!r} (choose from {', '.join(OUTPUT_KINDS)})")

    e0 = _parse_float(need("well.e0"), at("well.e0"))

    sweep = []
    if "sweep.delta_e" in pairs:
        sweep = [_parse_float(t.strip(), at("sweep.delta_e"))
                 for t in pairs["sweep.delta_e"].split(",") if t.strip()]
        if not sweep:
            raise ScenarioParseError(f"{at('sweep.delta_e')}: list is empty")

    # the splitting key (well.e1 or well.delta_e) is required unless
    # sweep.delta_e supplies one value per run
    split_key, foreign = _FAMILY_KEYS[kind]
    for bad in foreign:
        if bad in pairs:
            raise ScenarioParseError(f"{at(bad)}: not a key of the {kind} well")
    alpha = beta = None
    if kind == "asymmetric":
        alpha = _parse_float(need("well.alpha", " for an asymmetric well"),
                             at("well.alpha"))
        beta = _parse_float(need("well.beta", " for an asymmetric well"),
                            at("well.beta"))
        # at |alpha| >= 1 the asymmetric closed forms never decay
        if not -1.0 < alpha < 1.0:
            raise ScenarioValidationError(
                f"{at('well.alpha')}: must lie in (-1, 1), got {alpha}")
        # the envelope divides by beta**2, which must be a nonzero double
        if not (beta > 0 and 0.0 < beta * beta < math.inf):
            raise ScenarioValidationError(
                f"{at('well.beta')}: must be > 0 with a finite nonzero square, "
                f"got {beta}")
    split = (_parse_float(pairs[split_key], at(split_key))
             if split_key in pairs else None)
    if split is None and not sweep:
        raise ScenarioParseError(
            f"{at(split_key)}: required for a {kind} well (or {at('sweep.delta_e')})")
    if split is not None and sweep:
        raise ScenarioParseError(
            f"{at(split_key)} and {at('sweep.delta_e')} are mutually exclusive")

    times = [_parse_time(t.strip(), at("times"))
             for t in pairs.get("times", "0").split(",") if t.strip()]
    if not times:
        raise ScenarioParseError(f"{at('times')}: list is empty")

    ladder = [_parse_int(t.strip(), at("bench.ladder"))
              for t in pairs.get("bench.ladder", "751,1501,3001").split(",")
              if t.strip()]
    if "bench" in outputs and not ladder:
        raise ScenarioValidationError(
            f"{at('bench.ladder')}: must be non-empty for bench output")
    for rung in ladder:
        if rung < MIN_LATTICE_POINTS:
            raise ScenarioValidationError(
                f"{at('bench.ladder')}: need >= {MIN_LATTICE_POINTS} lattice points "
                f"per rung, got {rung}")
        if rung > MAX_LATTICE_POINTS:
            raise ScenarioValidationError(
                f"{at('bench.ladder')}: need <= {MAX_LATTICE_POINTS} lattice "
                f"points per rung, got {rung}")

    # each run's well is built and validated once, here; two sweep values
    # that print alike would write the same files
    name = _parse_name(pairs.get("name", name))
    runs: dict[str, Run] = {}
    for de in sweep or [None]:
        key = split_key if de is None else "sweep.delta_e"
        try:
            if kind == "symmetric":
                params = SymmetricWellParams(e0=e0, e1=split if de is None else e0 + de)
            else:
                params = AsymmetricWellParams(alpha=alpha, beta=beta, e0=e0,
                                              delta_e=split if de is None else de)
        except InvalidParameters as exc:
            raise ScenarioValidationError(f"{at(key)}: {exc}") from None
        c = params.delta_e / (4.0 * beta ** 2) if kind == "asymmetric" else math.inf
        if c < MIN_ASYMMETRIC_C:
            raise ScenarioValidationError(
                f"{at(key)}: with {at('well.beta')} = {beta!r}, c = delta_e / "
                f"(4 beta**2) is {c!r}; a well below c = {MIN_ASYMMETRIC_C:g} "
                f"cannot be normalised")
        prefix = _file_prefix(name, de)
        if prefix in runs:
            raise ScenarioValidationError(
                f"{at('sweep.delta_e')}: {runs[prefix].sweep_value!r} and {de!r} "
                f"would both write the files prefixed {prefix!r}")
        runs[prefix] = Run(de, prefix, params)

    scn = Scenario(
        name=name,
        runs=list(runs.values()),
        theta=_parse_angle(pairs.get("theta", "pi/4"), at("theta")),
        times=times,
        outputs=outputs,
        n_x=_parse_int(pairs.get("grid.n_x", "256"), at("grid.n_x")),
        n_y=_parse_int(pairs.get("grid.n_y", "1024"), at("grid.n_y")),
        p_max=_parse_float(pairs.get("grid.p_max", "5.0"), at("grid.p_max")),
        x_max=(_parse_float(pairs["grid.x_max"], at("grid.x_max"))
               if "grid.x_max" in pairs else None),
        tail_rel=_parse_float(pairs.get("tail_rel", "1e-10"), at("tail_rel")),
        plot_compat=_parse_bool(pairs.get("plot_compat", "false"), at("plot_compat")),
        bench_ladder=ladder,
        fringe_band=_parse_float(pairs.get("fringes.p_band", "4.0"),
                                 at("fringes.p_band")),
    )

    # physical-parameter invariants are re-validated here, at parse time
    for key, ok, rule, value in (
            ("theta", 0.0 <= scn.theta <= math.pi / 2.0,
             "must lie in [0, pi/2]", scn.theta),
            ("grid.n_x", 2 <= scn.n_x <= MAX_GRID_POINTS,
             f"need 2 <= n_x <= {MAX_GRID_POINTS}", scn.n_x),
            ("grid.n_y", scn.n_y >= 4 and not scn.n_y & (scn.n_y - 1),
             "need a power of two >= 4", scn.n_y),
            ("tail_rel", 0.0 < scn.tail_rel < 1.0, "must lie in (0, 1)", scn.tail_rel),
            ("grid.p_max", scn.p_max > 0, "must be > 0", scn.p_max),
            ("grid.x_max", scn.x_max is None or scn.x_max > 0, "must be > 0",
             scn.x_max),
            ("fringes.p_band", scn.fringe_band > 0, "must be > 0", scn.fringe_band)):
        if not ok:
            raise ScenarioValidationError(f"{at(key)}: {rule}, got {value}")
    budget_keys = f"{at('grid.n_x')}, {at('grid.n_y')}, {at('times')}"
    reducers = scn.reducers()
    try:
        # as the engine counts each call: whole frames if a reducer holds
        # them, else what the reductions keep, and one held column per
        # frame for fringes
        if reducers:
            check_frame_budget(len(times), scn.n_x, scn.n_y,
                               any(r.holds_frame for r in reducers))
        if "fringes" in outputs:
            check_frame_budget(len(times), 1, scn.n_y)
    except InvalidGrid as exc:
        raise ScenarioValidationError(f"{budget_keys}: {exc}") from None
    written = _written_bytes(scn)
    if written > WRITE_BUDGET_BYTES:
        raise ScenarioValidationError(
            f"{budget_keys}: the per-time files would take up to {written} "
            f"bytes, above the {WRITE_BUDGET_BYTES}-byte budget for written files")
    return scn


# Longest scenario file read, in bytes.  Each key takes one line, so only
# comments and the three lists make a file long.  1 MiB holds over 40,000
# list values of any spelling (_VALUE_BYTES each with its comma): more
# times than the frame budget admits for a wigner run (512) or a marginals
# or negativity run (52,428) on the default 256 x 1024 grid.  It does not
# admit all the budgets do: an evolve or fringes run on a small grid, or a
# potential, states or bench run, whose times no budget bounds, may list
# more.  A full file of one-digit times (524,249) parses with a 71 MB peak
# (tracemalloc).
MAX_SCENARIO_BYTES = 1 << 20


def parse_scenario(path: str | Path) -> Scenario:
    """Load a scenario file of at most :data:`MAX_SCENARIO_BYTES`; the file
    stem is the default name."""
    path = Path(path)
    with path.open("rb") as f:
        raw = f.read(MAX_SCENARIO_BYTES + 1)
    if len(raw) > MAX_SCENARIO_BYTES:
        raise ScenarioParseError(
            f"{path}: longer than {MAX_SCENARIO_BYTES} bytes, the most a "
            f"scenario file may hold")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path}: not UTF-8 text ({exc.reason} "
                                 f"at byte {exc.start})") from None
    return parse_scenario_text(text, name=path.stem)
