"""Parse-to-build sweep over asymmetric wells the parser accepts.

Each draw is a well with alpha U(-0.99, 0.99), beta log-U(0.003, 0.3),
e0 U(-1, 1) and delta_e log-U(0.1, 1000), drawn in that order from
``numpy.random.default_rng(5)``, so the first n draws are the same for
any sweep size.  Each is parsed from scenario text and built.  It must
build with unit mass, or raise :class:`ConvergenceFailure` with
c = delta_e / (4 beta^2) above :data:`CONVERGENCE_C_MIN`: at such c the
samples of log psi0 carry rounding noise near c * eps from forming
-c g(u), which keeps Romberg's 1e-12 out of reach.  No draw may raise
``NoDecay`` or ``NonFinite``.  Run a sweep of any size, printing the
count of each outcome, with

    PYTHONPATH=src python tests/test_build_sweep.py [DRAWS]
"""

import math
import sys
from collections import Counter

import numpy as np

from doublewell import ConvergenceFailure, DoubleWellError, WellModel, parse_scenario_text
from conftest import state_masses

# the tier-1 part: its 60 draws hold 1 ConvergenceFailure, which takes ~2 s
TIER1_DRAWS = 60
# the smallest c at which a build may fail to converge; 5,000 draws
# saw no failure below c = 2.58e5
CONVERGENCE_C_MIN = 1e5


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
    outcomes = Counter()
    for well in sweep_wells(TIER1_DRAWS):
        outcome, c, mass_error = build_outcome(*well)
        outcomes[outcome] += 1
        if outcome == "built":
            assert mass_error <= 1e-9, well
        else:
            assert outcome == ConvergenceFailure.__name__, (outcome, well)
            assert c > CONVERGENCE_C_MIN, well
    # the sweep reaches both outcomes
    assert outcomes["built"] >= 50 and outcomes[ConvergenceFailure.__name__] >= 1


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else TIER1_DRAWS
    outcomes, least_c, worst_mass = Counter(), {}, 0.0
    for well in sweep_wells(n):
        outcome, c, mass_error = build_outcome(*well)
        outcomes[outcome] += 1
        least_c[outcome] = min(c, least_c.get(outcome, math.inf))
        if mass_error is not None:
            worst_mass = max(worst_mass, mass_error)
    for outcome, count in sorted(outcomes.items()):
        print(f"{outcome}: {count} (least c {least_c[outcome]:.3g})")
    print(f"draws: {n}; worst |mass - 1| of a built well: {worst_mass:.3g}")
