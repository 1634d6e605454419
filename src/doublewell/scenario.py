"""Flat key=value scenario files.

One ``key = value`` pair per line; ``#`` starts a comment; nesting is
spelled with dotted keys (``well.kind``, ``grid.n_x``).  Unknown keys are
rejected, every number must be finite, and ``name`` (the prefix of every
output file) must be a plain file stem.  Angles accept plain floats or
``pi`` fractions ("pi/4", "3*pi/8"); times accept absolute floats or
fractions of the beat period ("T/8", "0.25T", "T").  A fraction needs a
nonzero divisor and a finite value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    InvalidGrid,
    InvalidParameters,
    ScenarioParseError,
    ScenarioValidationError,
)
from .specbench import MIN_LATTICE_POINTS
from .wellcore import AsymmetricWellParams, SymmetricWellParams
from .wigner import check_frame_budget

__all__ = ["Scenario", "TimeSpec", "parse_scenario", "parse_scenario_text"]

OUTPUT_KINDS = ("potential", "states", "wigner", "marginals",
                "negativity", "fringes", "bench")
# outputs that need the Wigner frames of every time
FIELD_OUTPUTS = frozenset({"wigner", "marginals", "negativity", "fringes"})

_KNOWN_KEYS = {
    "name", "well.kind", "well.e0", "well.e1", "well.alpha", "well.beta",
    "well.delta_e", "theta", "times", "sweep.delta_e", "grid.n_x",
    "grid.n_y", "grid.p_max", "grid.x_max", "tail_rel", "outputs",
    "plot_compat", "bench.ladder", "fringes.p_band",
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


@dataclass
class Scenario:
    """Validated scenario configuration."""

    name: str
    kind: str
    e0: float
    e1: float | None
    alpha: float | None
    beta: float | None
    delta_e: float | None
    theta: float
    times: list[TimeSpec]
    sweep_delta_e: list[float]
    outputs: list[str]
    n_x: int = 256
    n_y: int = 1024
    p_max: float = 5.0
    x_max: float | None = None
    tail_rel: float = 1e-10
    plot_compat: bool = False
    bench_ladder: list[int] = field(default_factory=lambda: [751, 1501, 3001])
    fringe_band: float = 4.0

    def sweep_values(self) -> list[float | None]:
        """Per-run splitting values; [None] when no sweep is configured."""
        return list(self.sweep_delta_e) or [None]

    def well_params(self, delta_e: float | None = None):
        """Well parameters for one run, substituting a sweep value."""
        try:
            if self.kind == "symmetric":
                e1 = self.e0 + delta_e if delta_e is not None else self.e1
                return SymmetricWellParams(e0=self.e0, e1=e1)
            de = delta_e if delta_e is not None else self.delta_e
            return AsymmetricWellParams(alpha=self.alpha, beta=self.beta,
                                        e0=self.e0, delta_e=de)
        except InvalidParameters as exc:
            raise ScenarioValidationError(str(exc)) from exc


def _finite(value: float, raw: str, where: str) -> float:
    if not math.isfinite(value):
        raise ScenarioParseError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _parse_name(raw: str) -> str:
    # the name prefixes every output file, so it must stay inside --out-dir
    if raw in ("", ".", "..") or "/" in raw or "\\" in raw:
        raise ScenarioParseError(
            f"name: expected a plain file stem without path separators, got {raw!r}")
    return raw


def _fraction(m: re.Match, token: str, where: str) -> tuple[float, float]:
    # (coefficient, divisor) of a "c*pi/d" or "cT/d" token
    coeff = float(m.group(1)) if m.group(1) else 1.0
    div = float(m.group(2)) if m.group(2) else 1.0
    if div == 0.0:
        raise ScenarioParseError(f"{where}: division by zero in {token!r}")
    return coeff, div


def _parse_angle(token: str, where: str) -> float:
    m = _PI_RE.match(token)
    if m:
        coeff, div = _fraction(m, token, where)
        return _finite(coeff * math.pi / div, token, where)
    try:
        value = float(token)
    except ValueError:
        raise ScenarioParseError(
            f"{where}: cannot parse angle {token!r} "
            "(use a float or a pi fraction like pi/4)") from None
    return _finite(value, token, where)


def _parse_time(token: str, where: str) -> TimeSpec:
    m = _T_FRAC_RE.match(token)
    if m:
        coeff, div = _fraction(m, token, where)
        return TimeSpec(value=_finite(coeff / div, token, where),
                        fraction_of_period=True)
    try:
        value = float(token)
    except ValueError:
        raise ScenarioParseError(
            f"{where}: cannot parse time {token!r} "
            "(use a float, T/8, or 0.25T)") from None
    return TimeSpec(value=_finite(value, token, where), fraction_of_period=False)


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


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    """Parse and validate scenario text; errors carry line/key context."""
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

    if "well.kind" not in pairs:
        raise ScenarioParseError("missing required key 'well.kind'")
    kind = pairs["well.kind"]
    if kind not in ("symmetric", "asymmetric"):
        raise ScenarioParseError(
            f"well.kind: expected symmetric or asymmetric, got {kind!r}")
    if "outputs" not in pairs:
        raise ScenarioParseError("missing required key 'outputs'")
    outputs = [t.strip() for t in pairs["outputs"].split(",") if t.strip()]
    if not outputs:
        raise ScenarioParseError("outputs: list is empty")
    for out in outputs:
        if out not in OUTPUT_KINDS:
            raise ScenarioParseError(
                f"outputs: unknown output {out!r} (choose from {', '.join(OUTPUT_KINDS)})")

    if "well.e0" not in pairs:
        raise ScenarioParseError("missing required key 'well.e0'")
    e0 = _parse_float(pairs["well.e0"], "well.e0")

    sweep = []
    if "sweep.delta_e" in pairs:
        sweep = [_parse_float(t.strip(), "sweep.delta_e")
                 for t in pairs["sweep.delta_e"].split(",") if t.strip()]
        if not sweep:
            raise ScenarioParseError("sweep.delta_e: list is empty")

    e1 = alpha = beta = delta_e = None
    if kind == "symmetric":
        for bad in ("well.alpha", "well.beta", "well.delta_e"):
            if bad in pairs:
                raise ScenarioParseError(f"{bad}: not a symmetric-well key")
        if "well.e1" in pairs:
            e1 = _parse_float(pairs["well.e1"], "well.e1")
        if e1 is None and not sweep:
            raise ScenarioParseError(
                "symmetric well needs well.e1 (or sweep.delta_e)")
        if e1 is not None and sweep:
            raise ScenarioParseError(
                "well.e1 and sweep.delta_e are mutually exclusive")
    else:
        if "well.e1" in pairs:
            raise ScenarioParseError(
                "well.e1: not an asymmetric-well key (use well.delta_e)")
        for req in ("well.alpha", "well.beta"):
            if req not in pairs:
                raise ScenarioParseError(f"missing required key {req!r}")
        alpha = _parse_float(pairs["well.alpha"], "well.alpha")
        beta = _parse_float(pairs["well.beta"], "well.beta")
        if "well.delta_e" in pairs:
            delta_e = _parse_float(pairs["well.delta_e"], "well.delta_e")
        if delta_e is None and not sweep:
            raise ScenarioParseError(
                "asymmetric well needs well.delta_e (or sweep.delta_e)")
        if delta_e is not None and sweep:
            raise ScenarioParseError(
                "well.delta_e and sweep.delta_e are mutually exclusive")

    times = [_parse_time(t.strip(), "times")
             for t in pairs.get("times", "0").split(",") if t.strip()]
    if not times:
        raise ScenarioParseError("times: list is empty")

    ladder = [_parse_int(t.strip(), "bench.ladder")
              for t in pairs.get("bench.ladder", "751,1501,3001").split(",")
              if t.strip()]
    if "bench" in outputs and not ladder:
        raise ScenarioValidationError("bench.ladder: must be non-empty for bench output")
    for rung in ladder:
        if rung < MIN_LATTICE_POINTS:
            raise ScenarioValidationError(
                f"bench.ladder: need >= {MIN_LATTICE_POINTS} lattice points "
                f"per rung, got {rung}")

    scenario = Scenario(
        name=_parse_name(pairs.get("name", name)),
        kind=kind,
        e0=e0,
        e1=e1,
        alpha=alpha,
        beta=beta,
        delta_e=delta_e,
        theta=_parse_angle(pairs.get("theta", "pi/4"), "theta"),
        times=times,
        sweep_delta_e=sweep,
        outputs=outputs,
        n_x=_parse_int(pairs.get("grid.n_x", "256"), "grid.n_x"),
        n_y=_parse_int(pairs.get("grid.n_y", "1024"), "grid.n_y"),
        p_max=_parse_float(pairs.get("grid.p_max", "5.0"), "grid.p_max"),
        x_max=(_parse_float(pairs["grid.x_max"], "grid.x_max")
               if "grid.x_max" in pairs else None),
        tail_rel=_parse_float(pairs.get("tail_rel", "1e-10"), "tail_rel"),
        plot_compat=_parse_bool(pairs.get("plot_compat", "false"), "plot_compat"),
        bench_ladder=ladder,
        fringe_band=_parse_float(pairs.get("fringes.p_band", "4.0"), "fringes.p_band"),
    )

    # physical-parameter invariants are re-validated here, at parse time
    if not 0.0 <= scenario.theta <= math.pi / 2.0 + 1e-12:
        raise ScenarioValidationError(
            f"theta: must lie in [0, pi/2], got {scenario.theta}")
    if scenario.n_x < 2:
        raise ScenarioValidationError(f"grid.n_x: need >= 2, got {scenario.n_x}")
    if scenario.n_y < 4 or scenario.n_y & (scenario.n_y - 1):
        raise ScenarioValidationError(
            f"grid.n_y: need a power of two >= 4, got {scenario.n_y}")
    if FIELD_OUTPUTS & set(outputs):
        try:
            check_frame_budget(len(times), scenario.n_x, scenario.n_y)
        except InvalidGrid as exc:
            raise ScenarioValidationError(f"grid.n_x, grid.n_y, times: {exc}") from None
    if not 0.0 < scenario.tail_rel < 1.0:
        raise ScenarioValidationError(
            f"tail_rel: must lie in (0, 1), got {scenario.tail_rel}")
    if scenario.p_max <= 0:
        raise ScenarioValidationError(f"grid.p_max: must be > 0, got {scenario.p_max}")
    if scenario.x_max is not None and scenario.x_max <= 0:
        raise ScenarioValidationError(f"grid.x_max: must be > 0, got {scenario.x_max}")
    if scenario.fringe_band <= 0:
        raise ScenarioValidationError(
            f"fringes.p_band: must be > 0, got {scenario.fringe_band}")
    for de in scenario.sweep_delta_e:
        scenario.well_params(de)  # raises ScenarioValidationError on bad values
    if not scenario.sweep_delta_e:
        scenario.well_params(None)
    return scenario


def parse_scenario(path: str | Path) -> Scenario:
    """Load a scenario file; the file stem is the default name."""
    path = Path(path)
    return parse_scenario_text(path.read_text(encoding="utf-8"), name=path.stem)
