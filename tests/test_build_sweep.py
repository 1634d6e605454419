"""Parse-to-run sweeps over the wells the parser accepts, in both families.

Asymmetric draws take alpha U(-0.99, 0.99), beta log-U(0.003, 0.3),
e0 U(-1, 1) and delta_e log-U(0.1, 1000), in that order, from
``numpy.random.default_rng(5)``.  Symmetric draws take e0 = -10**U(-2, 2)
and e1 = e0 * 10**U(-7, 0), in that order, from ``default_rng(6)``.  So
the first n draws of a family are the same for any sweep size.

Each asymmetric draw is parsed and built: it must build with unit mass,
or raise :class:`ConvergenceFailure` with c = delta_e / (4 beta^2) above
:data:`CONVERGENCE_C_MIN`.  At such c the samples of log psi0 carry
rounding noise near c * eps from forming -c g(u), which keeps the
normalising trapezoid's 1e-12 out of reach.  No draw may raise
``NoDecay`` or ``NonFinite``.  Every draw of the tier-1 part builds.

Each draw of either family is also parsed with ``outputs = potential,
states`` and run through :func:`run_scenario`.  It must do one of three
things: write both files; be refused at the parser by a message that
starts with its keys; or fail in a class that
:func:`named_failure` names.  Besides the asymmetric class above, those
are two symmetric ones, both at E1 near 0 (b = sqrt(-E1) small): a well
whose domain would pass the search's 1e4 cap raises ``NoDecay``, and on
a domain short of it phi = sinh(a x)/cosh(b x) ~ exp((a - b)|x|) can
still leave the double range at |x| = L, so ``potential`` raises
``NonFinite`` naming phi.

Run a sweep of any size, printing the count of each outcome, the worst
|mass - 1| of a written well's states and the least c of a
``ConvergenceFailure``, with

    PYTHONPATH=src python tests/test_build_sweep.py [DRAWS] [symmetric|asymmetric]
"""

import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from doublewell import (ConvergenceFailure, DoubleWellError, NoDecay, NonFinite,
                        ScenarioParseError, ScenarioValidationError, WellModel,
                        parse_scenario_text, run_scenario)
from doublewell.scenario import _KNOWN_KEYS
from conftest import state_masses

# the tier-1 part of the build sweep; all of its draws build
TIER1_DRAWS = 60
# the tier-1 part of each run sweep; the asymmetric draws are the first
# 30 of the build sweep's, whose unit mass it checks
RUN_DRAWS = 30
# the smallest c at which a build may fail to converge; 5,000 draws
# saw no failure below c = 8.46e5
CONVERGENCE_C_MIN = 5e5


def sweep_wells(n, seed=5):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (float(rng.uniform(-0.99, 0.99)),
               float(10.0 ** rng.uniform(math.log10(0.003), math.log10(0.3))),
               float(rng.uniform(-1.0, 1.0)),
               float(10.0 ** rng.uniform(-1.0, 3.0)))


def build_outcome(alpha, beta, e0, delta_e):
    """(outcome, c, largest |mass - 1| of a built model or None)."""
    scn = parse_scenario_text(
        f"well.kind = asymmetric\nwell.alpha = {alpha!r}\nwell.beta = {beta!r}\n"
        f"well.e0 = {e0!r}\nwell.delta_e = {delta_e!r}\noutputs = states\n")
    c = delta_e / (4.0 * beta ** 2)
    try:
        model = WellModel.build(scn.well_params())
    except DoubleWellError as exc:
        return type(exc).__name__, c, None
    return "built", c, max(abs(m - 1.0) for m in state_masses(model))


def test_parsed_asymmetric_wells_build_with_unit_mass():
    for well in sweep_wells(TIER1_DRAWS):
        outcome, _, mass_error = build_outcome(*well)
        assert outcome == "built", (outcome, well)
        assert mass_error <= 1e-9, well


def symmetric_wells(n, seed=6):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        e0 = -float(10.0 ** rng.uniform(-2.0, 2.0))
        yield e0, e0 * float(10.0 ** rng.uniform(-7.0, 0.0))


# family -> (its draws, the scenario keys of a draw's values)
FAMILIES = {
    "asymmetric": (sweep_wells, ("well.alpha", "well.beta", "well.e0", "well.delta_e")),
    "symmetric": (symmetric_wells, ("well.e0", "well.e1")),
}


def named_failure(exc, well) -> bool:
    """Whether ``exc``, raised by the run of ``well``, is a named class."""
    if "well.delta_e" in well:
        c = well["well.delta_e"] / (4.0 * well["well.beta"] ** 2)
        return isinstance(exc, ConvergenceFailure) and c > CONVERGENCE_C_MIN
    return ((isinstance(exc, NoDecay) and "likely non-normalizable" in str(exc))
            or (isinstance(exc, NonFinite) and "column phi: phi of " in str(exc)))


def run_outcome(kind, values, out_dir):
    """(outcome, the parsed scenario or None).  The outcome is "written",
    "refused: <keys>" or the class raised; one the sweep does not allow
    starts with "unnamed"."""
    well = dict(zip(FAMILIES[kind][1], values))
    text = f"well.kind = {kind}\n" + "".join(f"{k} = {v!r}\n" for k, v in well.items())
    try:
        scn = parse_scenario_text(text + "outputs = potential, states\n", name="w")
    except (ScenarioParseError, ScenarioValidationError) as exc:
        keys = str(exc).split(": ", 1)[0]
        named = set(keys.split(", ")) <= _KNOWN_KEYS
        return f"{'' if named else 'unnamed '}refused: {keys}", None
    try:
        manifest = run_scenario(scn, out_dir)
    except DoubleWellError as exc:
        named = named_failure(exc, well)
        return f"{'' if named else 'unnamed '}{type(exc).__name__}", scn
    if set(manifest) != {"w_potential.csv", "w_states.csv"}:
        return f"unnamed files {sorted(manifest)}", scn
    return "written", scn


@pytest.mark.parametrize("kind,least", [
    ("asymmetric", {"written": RUN_DRAWS}),
    ("symmetric", {"written": 10, NoDecay.__name__: 1, NonFinite.__name__: 1}),
])
def test_parsed_wells_run_or_fail_in_a_named_class(kind, least, tmp_path):
    draws, _ = FAMILIES[kind]
    outcomes = Counter()
    for i, values in enumerate(draws(RUN_DRAWS)):
        outcome, _ = run_outcome(kind, values, tmp_path / str(i))
        assert not outcome.startswith("unnamed"), (outcome, values)
        outcomes[outcome] += 1
    # the sweep reaches every outcome it names
    for outcome, count in least.items():
        assert outcomes[outcome] >= count, outcomes


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else RUN_DRAWS
    kind = sys.argv[2] if len(sys.argv) > 2 else "asymmetric"
    draws, _ = FAMILIES[kind]
    outcomes, first, worst_mass, least_c = Counter(), {}, 0.0, math.inf
    with tempfile.TemporaryDirectory() as tmp:
        for i, values in enumerate(draws(n)):
            outcome, scn = run_outcome(kind, values, Path(tmp) / str(i))
            outcomes[outcome] += 1
            first.setdefault(outcome, values)
            if outcome == "written":
                model = WellModel.build(scn.well_params())
                worst_mass = max(worst_mass, *(abs(m - 1.0) for m in state_masses(model)))
            elif outcome == ConvergenceFailure.__name__:
                least_c = min(least_c, values[3] / (4.0 * values[1] ** 2))
    for outcome, count in sorted(outcomes.items()):
        print(f"{outcome}: {count} (first: {first[outcome]!r})")
    print(f"{kind} draws: {n}; worst |mass - 1| of a written well: {worst_mass:.3g}; "
          f"least c of a {ConvergenceFailure.__name__}: {least_c:.3g}")
