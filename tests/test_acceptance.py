"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Two legs are expected failures, marked xfail(strict); the README
documents both: the asymmetric local-energy residual cannot meet 1e-6
with the 5-point stencil at h = 1e-2 (the envelope's local wavenumber at
the amplitude cut is ~12, putting the stencil truncation near 1e-4; the
same test passes at h = 1e-3), and the symmetric fringe sweep cannot
include the 0.75 splitting (its wells merge into a single trough whose
central momentum cut has exactly two genuine zero crossings, so no
fringe ladder exists there at any resolution).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from doublewell import (
    AsymmetricWellParams,
    NoFringes,
    PhaseSpaceGrid,
    SuperpositionState,
    SymmetricWellParams,
    WellModel,
    build_hamiltonian,
    fringe_spacing,
    interference_midpoint,
    lowest_eigenpairs,
    marginal_momentum,
    marginal_position,
    negativity,
    overlap_integral,
    parse_scenario,
    run_scenario,
    total_mass,
    wigner_direct,
    wigner_fft,
)
from conftest import field_for
from test_wellcore import max_local_energy_error
from test_wigner import PureState

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "doublewell" / "scenarios"


def _report(num: int, label: str, ok: bool = True, note: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{note}]" if note else ""
    print(f"ACCEPTANCE {num} {label}: {status}{suffix}")


# ---------------------------------------------------------------------------
# 1. exact-state suite: local-energy residuals
# ---------------------------------------------------------------------------

def test_criterion_1_symmetric_residuals(sym_shallow):
    for which in (0, 1):
        assert max_local_energy_error(sym_shallow, which, h=1e-2) < 1e-6
    _report(1, "exact-state residuals, symmetric well (h=1e-2)")


@pytest.mark.xfail(strict=True,
                   reason="5-point stencil at h=1e-2 cannot reach 1e-6 for the "
                          "asymmetric envelope (measured ~1.2e-4); see README")
def test_criterion_1_asymmetric_residuals_literal(asym_unit):
    _report(1, "exact-state residuals, asymmetric well (h=1e-2)", ok=False,
            note="stencil-resolution defect, passes at h=1e-3")
    for which in (0, 1):
        assert max_local_energy_error(asym_unit, which, h=1e-2) < 1e-6


def test_criterion_1_asymmetric_residuals_resolved(asym_unit):
    # same mask and tolerance, finer stencil: the closed forms do solve
    # the stationary equation
    for which in (0, 1):
        assert max_local_energy_error(asym_unit, which, h=1e-3) < 1e-6
    _report(1, "exact-state residuals, asymmetric well (h=1e-3)")


# ---------------------------------------------------------------------------
# 2. pointwise anchors
# ---------------------------------------------------------------------------

def test_criterion_2_pointwise_anchors(sym_shallow, asym_unit):
    assert abs(sym_shallow.potential(0.0) - (-0.2)) < 1e-10
    assert abs(asym_unit.potential(0.0) - 0.7025) < 1e-10
    assert abs(asym_unit.chi(0.0) - 0.45) < 1e-10
    assert abs(asym_unit.psi1(-math.atanh(0.9))) < 1e-10
    _report(2, "pointwise anchors V(0), chi(0), psi1 node")


# ---------------------------------------------------------------------------
# 3. Wigner engine equivalence
# ---------------------------------------------------------------------------

def _scenario_states(scenario):
    for sweep_value in scenario.sweep_values():
        model = WellModel.build(scenario.well_params(sweep_value),
                                tail_rel=scenario.tail_rel)
        state = SuperpositionState(model, scenario.theta)
        t = scenario.times[0].resolve(state.beat_period())
        yield state, t


def test_criterion_3_engine_equivalence(gaussian_state):
    worst = 0.0
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        scenario = parse_scenario(path)
        for state, t in _scenario_states(scenario):
            L = state.model.L
            xs = np.linspace(-L, L, 8)
            fft_field = wigner_fft(state, xs, t, n_y=1024, check_mass=False)
            ps = fft_field.grid.p_axis()
            keep = np.abs(ps) <= 4.0
            grid = PhaseSpaceGrid(x_min=xs[0], x_max=xs[-1], n_x=xs.size,
                                  p_min=float(ps[keep][0]),
                                  p_max=float(ps[keep][-1]),
                                  n_p=int(keep.sum()))
            direct = wigner_direct(state, grid, t, y_halfwidth=L, n_y=1024,
                                   check_mass=False)
            worst = max(worst, float(np.max(np.abs(
                direct.values - fft_field.values[:, keep]))))
    assert worst < 1e-8

    xs = np.linspace(-5.0, 5.0, 101)
    gfield = wigner_fft(gaussian_state, xs, 0.0, n_y=1024)
    ps = gfield.grid.p_axis()
    keep = np.abs(ps) <= 5.0
    X, P = np.meshgrid(xs, ps[keep], indexing="ij")
    assert np.max(np.abs(gfield.values[:, keep] - np.exp(-X**2 - P**2) / np.pi)) < 1e-6
    i0, j0 = np.argmin(np.abs(xs)), np.argmin(np.abs(ps))
    assert abs(gfield.values[i0, j0] - 1.0 / np.pi) < 1e-6
    _report(3, f"FFT path == direct quadrature on shipped configs "
               f"(sup {worst:.2e}); Gaussian oracle within 1e-6")


# ---------------------------------------------------------------------------
# 4. marginal / normalization suite
# ---------------------------------------------------------------------------

def test_criterion_4_marginals(cat_neardegen, cat_field_t0, cat_field_quarter):
    assert total_mass(cat_field_t0) == pytest.approx(1.0, abs=1e-6)
    assert total_mass(cat_field_quarter) == pytest.approx(1.0, abs=1e-6)

    xs = cat_field_quarter.grid.x_axis()
    t4 = cat_field_quarter.time
    marg_x = marginal_position(cat_field_quarter)
    assert np.max(np.abs(marg_x - cat_neardegen.density(xs, t4))) < 1e-6

    model = cat_neardegen.model
    expect = 0.5 * (model.psi0(xs) ** 2 + model.psi1(xs) ** 2)
    assert np.max(np.abs(marg_x - expect)) < 1e-6

    ps = cat_field_quarter.grid.p_axis()
    keep = np.abs(ps) <= 6.0
    xd = np.linspace(-model.L, model.L, 8193)
    psi = cat_neardegen.wavefunction(xd, t4)
    phi = np.array([np.trapezoid(psi * np.exp(-1j * p * xd), xd)
                    for p in ps[keep]]) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(marginal_momentum(cat_field_quarter)[keep]
                         - np.abs(phi) ** 2)) < 1e-6
    _report(4, "mass, position/momentum marginals, quarter-period density")


# ---------------------------------------------------------------------------
# 5. negativity / fringe suite
# ---------------------------------------------------------------------------

def test_criterion_5_negativity(gaussian_field, cat_field_t0, cat_field_quarter):
    assert negativity(gaussian_field).negative_volume < 1e-8
    # localized packet at t = 0: small but definite negativity (threshold
    # frozen from the first oracle run at this grid: volume 0.00854)
    assert negativity(cat_field_t0).negative_volume > 0.005
    # split packet at t = T/4 spans both wells: volume 0.3168 > 0.05
    assert negativity(cat_field_quarter).negative_volume > 0.05
    _report(5, "negativity: Gaussian < 1e-8; tunneling packet "
               f"{negativity(cat_field_t0).negative_volume:.4f} at t=0, "
               f"{negativity(cat_field_quarter).negative_volume:.4f} at T/4")


def test_criterion_5_asymmetric_fringe_sweep():
    spacings = []
    for de in (0.5, 4.0, 8.0):
        model = WellModel.build(AsymmetricWellParams(0.9, 1.0, 0.0, de))
        state = SuperpositionState(model, math.pi / 4)
        field = field_for(state, state.beat_period() / 4)
        spacings.append(fringe_spacing(field, interference_midpoint(state)))
    assert spacings[0] < spacings[1] < spacings[2]
    _report(5, "asymmetric fringe sweep {0.5, 4, 8} strictly increasing "
               f"({', '.join(f'{s:.3f}' for s in spacings)})")


def test_criterion_5_symmetric_fringe_pair():
    spacings = []
    for de in (0.25, 0.5):
        model = WellModel.build(SymmetricWellParams(-1.0, -1.0 + de))
        state = SuperpositionState(model, math.pi / 4)
        field = field_for(state, state.beat_period() / 4)
        spacings.append(fringe_spacing(field, 0.0))
    assert spacings[0] < spacings[1]
    _report(5, "symmetric fringe pair {0.25, 0.5} strictly increasing "
               f"({', '.join(f'{s:.3f}' for s in spacings)})")


@pytest.mark.xfail(strict=True, raises=NoFringes,
                   reason="dE=0.75 merges the wells; its central cut has two "
                          "zero crossings, so no fringe ladder exists; see README")
def test_criterion_5_symmetric_fringe_triple_literal():
    _report(5, "symmetric fringe sweep {0.25, 0.5, 0.75}", ok=False,
            note="merged-trough defect: 0.75 has no fringe ladder")
    spacings = []
    for de in (0.25, 0.5, 0.75):
        model = WellModel.build(SymmetricWellParams(-1.0, -1.0 + de))
        state = SuperpositionState(model, math.pi / 4)
        field = field_for(state, state.beat_period() / 4)
        spacings.append(fringe_spacing(field, 0.0))
    assert spacings[0] < spacings[1] < spacings[2]


# ---------------------------------------------------------------------------
# 6. overlap suite
# ---------------------------------------------------------------------------

def test_criterion_6_overlaps(sym_neardegen, sym_shallow, asym_unit, cat_field_t0):
    f0 = field_for(PureState(sym_neardegen, 0), 0.0)
    f1 = field_for(PureState(sym_neardegen, 1), 0.0)
    assert abs(overlap_integral(f0, f1)) < 1e-8

    constants = []
    for model in (sym_neardegen, sym_shallow, asym_unit):
        f = field_for(PureState(model, 0), 0.0)
        constants.append(overlap_integral(f, f))
    spread = (max(constants) - min(constants)) / min(constants)
    assert spread < 1e-3

    ov = overlap_integral(cat_field_t0, f0)
    assert ov == pytest.approx(0.5 * constants[0], abs=1e-4)
    _report(6, f"overlaps: orthogonal 0, self-overlap constant "
               f"{constants[0]:.6f} equal across states (spread {spread:.1e})")


# ---------------------------------------------------------------------------
# 7. eigensolver benchmark
# ---------------------------------------------------------------------------

def test_criterion_7_eigensolver(sym_shallow, sym_neardegen):
    errors = {}
    for n in (3001, 6001):
        pairs = lowest_eigenpairs(build_hamiltonian(sym_shallow, n, 20.0), k=2)
        errors[n] = (abs(pairs[0][0] + 1.0), abs(pairs[1][0] + 0.9))
    assert errors[3001][0] < 1e-3 and errors[3001][1] < 1e-3
    for i in (0, 1):
        order = math.log2(errors[3001][i] / errors[6001][i])
        assert 1.8 < order < 2.2

    pairs = lowest_eigenpairs(
        build_hamiltonian(sym_neardegen, 3001, sym_neardegen.L), k=2)
    split = pairs[1][0] - pairs[0][0]
    assert abs(split - 0.001) / 0.001 < 0.10
    _report(7, f"eigensolver: errors {errors[3001][0]:.1e}/{errors[3001][1]:.1e} "
               f"at n=3001, order ~2, near-degenerate split {split:.6e}")


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    scn = SCENARIO_DIR / "fig4_symmetric.scn"
    run_scenario(scn, tmp_path / "a")
    run_scenario(scn, tmp_path / "b")
    bytes_a = (tmp_path / "a" / "manifest.txt").read_bytes()
    bytes_b = (tmp_path / "b" / "manifest.txt").read_bytes()
    assert bytes_a == bytes_b
    _report(8, "byte-identical manifests from two runs")
