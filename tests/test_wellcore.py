"""Closed-form wells: construction, pointwise anchors, and invariants.

Oracles used here are independent of the library internals: 5-point
finite differences for derivatives and local energies, dense trapezoid
quadrature for norms and orthogonality.
"""

import math
import re

import numpy as np
import pytest

from doublewell import (
    AsymmetricWellParams,
    ConvergenceFailure,
    DegenerateSplitting,
    InvalidParameters,
    NoDecay,
    NonFinite,
    SuperpositionState,
    SymmetricWellParams,
    WellModel,
    domain_halfwidth,
)
import doublewell.wellcore as wellcore
from doublewell.wellcore import _raw_states, _romberg, _sup_bounds, _tail_subgrid
from conftest import reference_romberg, reference_model_constants, reference_raw_pair


def trapz_norm(fn, L, n=20001):
    xs = np.linspace(-L, L, n)
    return np.trapezoid(fn(xs) ** 2, xs)


def stencil_d2(fn, xs, h):
    return (-fn(xs + 2 * h) + 16 * fn(xs + h) - 30 * fn(xs)
            + 16 * fn(xs - h) - fn(xs - 2 * h)) / (12 * h * h)


def stencil_d1(fn, xs, h):
    return (-fn(xs + 2 * h) + 8 * fn(xs + h)
            - 8 * fn(xs - h) + fn(xs - 2 * h)) / (12 * h)


def max_local_energy_error(model, which, h):
    """Worst |(-psi'' + V psi)/psi - E| where |psi| > 1e-3 * peak."""
    fn = model.psi0 if which == 0 else model.psi1
    energy = model.e0 if which == 0 else model.e1
    xs = np.linspace(-model.L + 5 * h, model.L - 5 * h, 2001)
    vals = fn(xs)
    xs = xs[np.abs(vals) > 1e-3 * np.max(np.abs(vals))]
    local = (-stencil_d2(fn, xs, h) + model.potential(xs) * fn(xs)) / fn(xs)
    return np.max(np.abs(local - energy))


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_symmetric_params_reject_bad_ordering():
    with pytest.raises(InvalidParameters, match="E0 < E1"):
        SymmetricWellParams(e0=-0.5, e1=-0.9)
    with pytest.raises(InvalidParameters, match="E0 < E1"):
        SymmetricWellParams(e0=-1.0, e1=-1.0)


def test_symmetric_params_reject_nonnegative_e1():
    with pytest.raises(InvalidParameters, match="E1 < 0"):
        SymmetricWellParams(e0=-1.0, e1=0.0)


def test_asymmetric_params_reject_bad_scales():
    with pytest.raises(InvalidParameters, match="beta"):
        AsymmetricWellParams(alpha=0.9, beta=0.0, e0=0.0, delta_e=1.0)
    with pytest.raises(InvalidParameters, match="delta_e"):
        AsymmetricWellParams(alpha=0.9, beta=1.0, e0=0.0, delta_e=-1.0)


@pytest.mark.parametrize("e0,delta_e", [(1e16, 1.0), (1e15, 0.1), (-1e12, 1e-4)])
def test_asymmetric_params_refuse_a_splitting_lost_to_rounding(e0, delta_e):
    # e1 = e0 + delta_e keeps too little of delta_e next to a large |e0|:
    # the splittings become 0, 0.125 and 1.220703125e-4
    split = (e0 + delta_e) - e0
    with pytest.raises(InvalidParameters, match=re.escape(
            f"delta_e {delta_e!r} is lost to rounding next to e0 {e0!r}: "
            f"e1 - e0 is {split!r}, off by more than 1e-09 relative")):
        AsymmetricWellParams(alpha=0.5, beta=1.0, e0=e0, delta_e=delta_e)


@pytest.mark.parametrize("beta", [1e-300, 1e200])
def test_asymmetric_params_reject_beta_whose_square_is_not_a_double(beta):
    # the envelope divides by beta**2, which underflows to 0 or overflows
    with pytest.raises(InvalidParameters, match="beta"):
        AsymmetricWellParams(alpha=0.2, beta=beta, e0=-1.0, delta_e=1.0)


def test_derived_decay_rates():
    p = SymmetricWellParams(e0=-1.0, e1=-0.9)
    assert p.a == 1.0
    assert p.b == pytest.approx(math.sqrt(0.9), abs=0)
    assert AsymmetricWellParams(0.9, 1.0, 0.0, 1.0).e1 == 1.0


# ---------------------------------------------------------------------------
# multiplier function phi
# ---------------------------------------------------------------------------

def test_phi_symmetric_vanishes_at_origin(sym_neardegen):
    assert sym_neardegen.phi(0.0) == 0.0


def test_phi_asymmetric_anchors(asym_unit):
    assert asym_unit.phi(0.0) == pytest.approx(0.9, abs=1e-12)
    # tanh saturates: alpha + 1
    assert asym_unit.phi(25.0) == pytest.approx(1.9, abs=1e-12)


def test_phi_matches_hyperbolic_ratio(sym_shallow):
    xs = np.array([0.3, 1.0, 2.5, -1.7])
    a, b = sym_shallow.params.a, sym_shallow.params.b
    expect = np.sinh(a * xs) / np.cosh(b * xs)
    assert np.max(np.abs(sym_shallow.phi(xs) - expect)) < 1e-12


@pytest.mark.parametrize("fixture", ["sym_shallow", "asym_unit"])
def test_psi1_proportional_to_phi_psi0(fixture, request):
    model = request.getfixturevalue(fixture)
    xs = np.array([0.5, -0.5, 1.5, -1.5])
    ratio = model.psi1(xs) / model.psi0(xs)
    const = ratio[0] / model.phi(xs[0])
    assert np.max(np.abs(ratio - const * model.phi(xs))) < 1e-10


# ---------------------------------------------------------------------------
# chi = -psi0'/psi0
# ---------------------------------------------------------------------------

def test_chi_anchors(sym_neardegen, asym_unit):
    assert sym_neardegen.chi(0.0) == pytest.approx(0.0, abs=1e-15)
    assert asym_unit.chi(0.0) == pytest.approx(0.45, abs=1e-10)


def test_chi_is_negative_log_derivative(sym_neardegen):
    h = 1e-2
    d1 = stencil_d1(sym_neardegen.psi0, np.array([1.0]), h)[0]
    assert abs(sym_neardegen.chi(1.0) + d1 / sym_neardegen.psi0(1.0)) < 1e-8


@pytest.mark.parametrize("fixture", ["sym_shallow", "sym_neardegen", "asym_unit"])
def test_chi_log_derivative_identity(fixture, request):
    model = request.getfixturevalue(fixture)
    # sample where the state carries amplitude; the quotient loses all
    # accuracy deep in the tail where psi0 underflows toward zero
    grid = np.linspace(-model.L, model.L, 801)
    body = grid[np.abs(model.psi0(grid)) > 1e-2 * np.max(np.abs(model.psi0(grid)))]
    xs = np.quantile(body, [0.05, 0.3, 0.5, 0.7, 0.95])
    d1 = stencil_d1(model.psi0, xs, 1e-3)
    assert np.max(np.abs(model.chi(xs) + d1 / model.psi0(xs))) < 1e-8


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_potential_anchors(sym_shallow, asym_unit):
    # closed forms collapse at x = 0: 2*(E0 - E1) and
    # beta^2 + dE^2 alpha^2/(4 beta^2) - dE/2 + E0
    assert sym_shallow.potential(0.0) == pytest.approx(-0.2, abs=1e-10)
    assert asym_unit.potential(0.0) == pytest.approx(0.7025, abs=1e-10)


def test_symmetric_potential_decays(sym_neardegen):
    assert abs(sym_neardegen.potential(20.0)) < 1e-8
    assert abs(sym_neardegen.potential(-20.0)) < 1e-8


def test_symmetric_potential_even(sym_shallow):
    xs = np.array([0.5, 1.0, 3.0, 7.0])
    assert np.max(np.abs(sym_shallow.potential(xs) - sym_shallow.potential(-xs))) < 1e-12


def test_symmetric_parity_of_chi_and_phi(sym_shallow):
    xs = np.array([0.5, 1.0, 3.0, 7.0])
    assert np.max(np.abs(sym_shallow.chi(xs) + sym_shallow.chi(-xs))) < 1e-12
    assert np.max(np.abs(sym_shallow.phi(xs) + sym_shallow.phi(-xs))) < 1e-12


def test_asymmetric_alpha_zero_is_even():
    model = WellModel.build(AsymmetricWellParams(alpha=0.0, beta=1.0, e0=0.0, delta_e=1.0))
    xs = np.array([0.3, 0.9, 1.8, 2.6])
    assert np.max(np.abs(model.potential(xs) - model.potential(-xs))) < 1e-12


# ---------------------------------------------------------------------------
# eigenstates
# ---------------------------------------------------------------------------

def test_psi0_even_and_nodeless(sym_shallow):
    for x in (0.5, 1.0, 3.0):
        assert abs(sym_shallow.psi0(x) - sym_shallow.psi0(-x)) < 1e-12
    xs = np.linspace(-sym_shallow.L, sym_shallow.L, 4001)
    signs = np.sign(sym_shallow.psi0(xs))
    assert np.all(signs[np.abs(sym_shallow.psi0(xs)) > 0] > 0)


def count_sign_changes(vals):
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def test_psi1_odd_with_single_node(sym_shallow):
    assert sym_shallow.psi1(0.0) == 0.0
    xs = np.linspace(-sym_shallow.L, sym_shallow.L, 4001)
    vals = sym_shallow.psi1(xs)
    assert count_sign_changes(vals) == 1
    assert np.max(np.abs(vals + sym_shallow.psi1(-xs))) < 1e-12


def test_asymmetric_node_location(asym_unit):
    x_node = -math.atanh(0.9)
    assert abs(asym_unit.psi1(x_node)) < 1e-10
    xs = np.linspace(-asym_unit.L, asym_unit.L, 4001)
    assert count_sign_changes(asym_unit.psi1(xs)) == 1


def test_sign_conventions(sym_shallow, asym_unit):
    for model in (sym_shallow, asym_unit):
        assert model.psi0(0.0) > 0
    # positive slope through the node
    assert sym_shallow.psi1(0.1) > 0
    x_node = -math.atanh(0.9)
    assert asym_unit.psi1(x_node + 0.1) > 0


@pytest.mark.parametrize("fixture", ["sym_shallow", "sym_neardegen",
                                     "asym_unit", "asym_neardegen"])
def test_unit_norms_by_quadrature(fixture, request):
    model = request.getfixturevalue(fixture)
    assert trapz_norm(model.psi0, model.L) == pytest.approx(1.0, abs=1e-10)
    assert trapz_norm(model.psi1, model.L) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("fixture", ["sym_shallow", "asym_unit"])
def test_orthogonality(fixture, request):
    model = request.getfixturevalue(fixture)
    xs = np.linspace(-model.L, model.L, 20001)
    assert abs(np.trapezoid(model.psi0(xs) * model.psi1(xs), xs)) < 1e-10


def test_tails_below_threshold(sym_neardegen):
    L = sym_neardegen.L
    xs = np.linspace(-L, L, 4001)
    for fn in (sym_neardegen.psi0, sym_neardegen.psi1):
        peak = np.max(np.abs(fn(xs)))
        assert max(abs(fn(L)), abs(fn(-L))) < 1e-10 * peak


# ---------------------------------------------------------------------------
# local-energy residuals (the states really solve the stationary equation)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture,h", [
    ("sym_shallow", 1e-2),
    ("sym_neardegen", 1e-2),
    # the asymmetric envelope's local wavenumber at the amplitude cut is
    # ~12, so the 5-point stencil needs the finer step to stay below 1e-6
    ("asym_unit", 1e-3),
    ("asym_neardegen", 1e-3),
])
def test_local_energy_residuals(fixture, h, request):
    model = request.getfixturevalue(fixture)
    assert max_local_energy_error(model, 0, h) < 1e-6
    assert max_local_energy_error(model, 1, h) < 1e-6


def test_asymmetric_residual_at_coarse_step(asym_unit):
    # regression pin for the stencil-resolution limit at h = 1e-2
    err = max_local_energy_error(asym_unit, 0, 1e-2)
    assert 1e-5 < err < 1e-3


# ---------------------------------------------------------------------------
# superposition dynamics
# ---------------------------------------------------------------------------

def test_theta_range_enforced(sym_shallow):
    with pytest.raises(InvalidParameters, match="theta"):
        SuperpositionState(sym_shallow, -0.1)
    with pytest.raises(InvalidParameters, match="theta"):
        SuperpositionState(sym_shallow, math.pi)


def test_equal_weights_at_t0(sym_shallow):
    state = SuperpositionState(sym_shallow, math.pi / 4)
    xs = np.array([-1.2, 0.4, 2.0])
    expect = (sym_shallow.psi0(xs) + sym_shallow.psi1(xs)) / math.sqrt(2.0)
    assert np.max(np.abs(state.wavefunction(xs, 0.0) - expect)) < 1e-14


def test_stationary_state_density_time_independent(sym_shallow):
    state = SuperpositionState(sym_shallow, math.pi / 2)
    xs = np.linspace(-5, 5, 101)
    d0 = state.density(xs, 0.0)
    d1 = state.density(xs, 17.3)
    assert np.max(np.abs(d0 - d1)) < 1e-14
    amp = state.wavefunction(1.0, 2.0)
    assert abs(amp - np.exp(-1j * sym_shallow.e0 * 2.0) * sym_shallow.psi0(1.0)) < 1e-14


def test_cross_term_vanishes_at_quarter_period(sym_shallow):
    state = SuperpositionState(sym_shallow, math.pi / 4)
    t = state.beat_period() / 4.0
    xs = np.linspace(-6, 6, 201)
    expect = 0.5 * (sym_shallow.psi0(xs) ** 2 + sym_shallow.psi1(xs) ** 2)
    assert np.max(np.abs(state.density(xs, t) - expect)) < 1e-12


def test_norm_conserved_over_beat(sym_neardegen):
    state = SuperpositionState(sym_neardegen, math.pi / 4)
    T = state.beat_period()
    xs = np.linspace(-sym_neardegen.L, sym_neardegen.L, 20001)
    for t in (0.0, T / 8, T / 4, T / 2, T):
        norm = np.trapezoid(np.abs(state.wavefunction(xs, t)) ** 2, xs)
        assert norm == pytest.approx(1.0, abs=1e-10)


def _support_axis(model):
    # beyond the support on both sides, with both ends and the first point
    # past +L included exactly
    xs = np.linspace(-1.5 * model.L, 1.5 * model.L, 3001)
    return np.concatenate((xs, [-model.L, model.L, np.nextafter(model.L, np.inf)]))


@pytest.mark.parametrize("fixture", ["sym_neardegen", "asym_unit"])
def test_basis_is_the_closed_forms_on_the_support(fixture, request):
    model = request.getfixturevalue(fixture)
    xs = _support_axis(model)
    inside = np.abs(xs) <= model.L
    f0, f1 = SuperpositionState(model, math.pi / 4).basis(xs)
    psi0, psi1 = model.states(xs[inside])
    assert np.array_equal(f0[inside], psi0)
    assert np.array_equal(f1[inside], psi1)
    assert not f0[~inside].any() and not f1[~inside].any()


@pytest.mark.parametrize("fixture", ["sym_neardegen", "asym_unit"])
def test_wavefunction_is_the_weighted_closed_forms_on_the_support(fixture, request):
    # c0 psi0 + c1 psi1 on |x| <= L, bit for bit, and zero outside
    model = request.getfixturevalue(fixture)
    state = SuperpositionState(model, 0.6)
    xs = _support_axis(model)
    inside = np.abs(xs) <= model.L
    psi0, psi1 = model.states(xs[inside])
    for t in (0.0, 0.3 * state.beat_period()):
        c0, c1 = state.coefficients(t)
        amp = state.wavefunction(xs, t)
        assert amp.dtype == complex
        assert np.array_equal(amp[inside], c0 * psi0 + c1 * psi1)
        assert not amp[~inside].any()
        for x in (0.5, -2.0 * model.L):
            assert state.wavefunction(x, t) == state.wavefunction(np.array([x]), t)[0]
            assert type(state.wavefunction(x, t)) is complex


def test_beat_periods(sym_neardegen, asym_unit):
    assert SuperpositionState(sym_neardegen, 0.5).beat_period() == \
        pytest.approx(6283.185307179586, abs=1e-9)
    assert SuperpositionState(asym_unit, 0.5).beat_period() == \
        pytest.approx(2.0 * math.pi, abs=0)
    wide = WellModel.build(AsymmetricWellParams(0.9, 1.0, 0.0, 8.0))
    assert SuperpositionState(wide, 0.5).beat_period() == \
        pytest.approx(math.pi / 4.0, abs=0)


class _ZeroSplit:
    """Model stub with zero splitting; unreachable via public constructors."""

    def __init__(self, model):
        self._model = model

    @property
    def delta_e(self):
        return 0.0

    def __getattr__(self, name):
        return getattr(self._model, name)


def test_degenerate_splitting_guard(sym_shallow):
    with pytest.raises(DegenerateSplitting):
        SuperpositionState(_ZeroSplit(sym_shallow), 0.3).beat_period()


# ---------------------------------------------------------------------------
# domain halfwidth
# ---------------------------------------------------------------------------

def test_halfwidth_neardegenerate_symmetric():
    # exponential tails ~ e^{-|x|} below 1e-10 of the peak near x = 28
    L = domain_halfwidth(SymmetricWellParams(-1.0, -0.999))
    assert abs(L - 28.25) <= 0.5


def test_halfwidth_tight_asymmetric():
    # super-exponential envelope: first probe already satisfies, result < 4
    L = domain_halfwidth(AsymmetricWellParams(0.9, 1.0, 0.0, 8.0))
    assert L < 4.0


def test_halfwidth_monotone_in_threshold():
    p = SymmetricWellParams(-1.0, -0.999)
    loose = domain_halfwidth(p, tail_rel=1e-10)
    tight = domain_halfwidth(p, tail_rel=1e-12)
    half = domain_halfwidth(p, tail_rel=0.5)
    assert tight >= loose > half > 0


def test_halfwidth_rejects_bad_threshold():
    with pytest.raises(InvalidParameters, match="tail_rel"):
        domain_halfwidth(SymmetricWellParams(-1.0, -0.9), tail_rel=0.0)


@pytest.mark.parametrize("L", [4.0, 6.375, 28.25, 137.9, 1e4])
def test_halfwidth_grid_ends_are_the_tail_samples(L):
    # domain_halfwidth reads |psi(+-L)| off its 4001-point grid's end
    # samples, and decides most L from a sub-grid evaluated on its own
    grid = np.linspace(-L, L, 4001)
    assert grid[0] == -L and grid[-1] == L
    subsets = [[0, -1], slice(None, None, 32), slice(1, 4000, 7),
               slice(1999, 2002), [1234], [4000, 17, 2000, 3]]
    for params in (SymmetricWellParams(-1.0, -0.999),
                   AsymmetricWellParams(0.9, 1.0, 0.0, 1.0),
                   AsymmetricWellParams(-0.5, 2.0, 0.3, 0.7)):
        full = _raw_states(params, grid)
        for idx in subsets:
            alone = _raw_states(params, grid[idx].copy())
            for on_grid, by_itself in zip(full, alone):
                assert on_grid[idx].tobytes() == by_itself.tobytes()


@pytest.mark.parametrize("L", [0.25, 1.0, 4.0, 6.375, 28.25, 137.9, 1e4,
                               5.0078125, 3.14159, 1.0 / 3.0, 2.0 ** 13 + 0.1])
def test_tail_subgrid_is_every_32nd_grid_sample(L):
    sub = _tail_subgrid(L)
    assert sub.shape == (126,)
    assert sub.tobytes() == np.linspace(-L, L, 4001)[::32].tobytes()


def _seeded_params(seed, n):
    # both families over wide ranges: symmetric splittings down to 1e-6 of
    # E0, |alpha| up to 0.999 and past 1 (NoDecay), beta 0.03-30 and
    # delta_e 1e-4 to 100
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        if k % 2 == 0:
            e0 = -(10.0 ** rng.uniform(-2.0, 1.5))
            gap = (10.0 ** rng.uniform(-6.0, -0.05) if k % 4 == 0
                   else rng.uniform(0.05, 0.9))
            out.append(SymmetricWellParams(e0, e0 * (1.0 - gap)))
        else:
            alpha = (rng.uniform(-0.999, 0.999) if k % 10 != 1
                     else rng.choice([-1.0, 1.0]) * rng.uniform(0.95, 1.2))
            out.append(AsymmetricWellParams(
                alpha, 10.0 ** rng.uniform(np.log10(0.03), np.log10(30.0)),
                rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-4.0, 2.0)))
    return out


def _state_masses(model):
    # 400,001-point trapezoid of each normalised state's square
    xs = np.linspace(-model.L, model.L, 400_001)
    return [float(np.trapezoid(psi ** 2, xs)) for psi in model.states(xs)]


def test_build_constants_match_reference_on_seeded_models():
    # bit for bit against the unscaled squares; only a model whose unscaled
    # squares leave the normal range (raw peaks near 1e+-160; a far tail's
    # subnormal squares alone change no bit) may differ, and is then
    # checked by unit mass
    built = no_decay = scaled = 0
    for params in _seeded_params(1, 300):
        try:
            model = WellModel.build(params)
        except NoDecay:
            with pytest.raises(NoDecay):
                reference_model_constants(params)
            no_decay += 1
            continue
        out_of_range = []
        reference = reference_model_constants(params, out_of_range=out_of_range)
        if (model.L, model.norm0, model.norm1) != reference:
            assert out_of_range
            assert _state_masses(model) == pytest.approx([1.0, 1.0], abs=1e-9)
            scaled += 1
            continue
        built += 1
    assert built >= 260 and no_decay >= 5 and scaled >= 1


def test_sup_bounds_hold_on_the_grid():
    certified = 0
    for params in _seeded_params(7, 200):
        sup = _sup_bounds(params)
        if sup is None:
            continue
        certified += 1
        xs = np.linspace(-30.0, 30.0, 20001) / min(1.0, getattr(params, "beta", 1.0))
        for psi, S in zip(_raw_states(params, xs), sup):
            assert np.all(np.isfinite(psi)) and np.abs(psi).max() <= S
    assert certified >= 150


def _catalog_params(seed, n=80):
    # the ranges of the benchmark's model catalog
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        if k % 2 == 0:
            e0 = rng.uniform(-1.5, -0.5)
            out.append(SymmetricWellParams(e0, e0 * (1.0 - rng.uniform(0.05, 0.5))))
        else:
            out.append(AsymmetricWellParams(
                rng.uniform(-0.9, 0.9), rng.uniform(0.7, 1.5),
                rng.uniform(-1.0, 1.0), rng.uniform(0.5, 6.0)))
    return out


def test_build_evaluates_few_full_tail_grids(monkeypatch):
    # the sub-grid and the bounds decide most domain-search steps
    sizes = []

    def counting(params, x):
        sizes.append(np.size(x))
        return _raw_states(params, x)

    monkeypatch.setattr(wellcore, "_raw_states", counting)
    models = _catalog_params(3)
    for params in models:
        WellModel.build(params)
    assert sizes.count(4001) <= 3 * len(models)


def test_no_decay_for_nonnormalizable_alpha():
    with pytest.raises(NoDecay):
        domain_halfwidth(AsymmetricWellParams(alpha=1.2, beta=1.0, e0=0.0, delta_e=1.0))


@pytest.mark.parametrize("alpha", [1.0, -1.0])
def test_build_refuses_alpha_of_modulus_one_with_no_decay(alpha):
    # one exponential of the envelope overflows where its factor 1 -+ alpha
    # is 0; the NaN it makes must reach the domain search without a warning
    with pytest.raises(NoDecay):
        WellModel.build(AsymmetricWellParams(alpha, 1.0, 0.0, 1.0))


def test_domain_search_decides_each_trial_L_once(monkeypatch):
    # the doubling's last failed probe is not asked again by the halving,
    # and the halving runs only after the first probe passed
    trials = []

    def recording(params, L, tail_rel, sup):
        trials.append(L)
        return tails_ok(params, L, tail_rel, sup)

    tails_ok = wellcore._tails_ok
    monkeypatch.setattr(wellcore, "_tails_ok", recording)
    first_passed = doubled = 0
    for params in _seeded_params(11, 120):
        trials.clear()
        try:
            L = domain_halfwidth(params)
        except NoDecay:
            assert trials == [4.0 * 2 ** k for k in range(12)]
            continue
        assert len(set(trials)) == len(trials)
        assert L in trials
        first_passed += trials[1] == 2.0
        doubled += trials[1] == 8.0
    assert first_passed >= 10 and doubled >= 10


# ---------------------------------------------------------------------------
# joint (psi0, psi1) kernel against the single-state closed forms
# ---------------------------------------------------------------------------

KERNEL_PARAMS = [
    SymmetricWellParams(-1.0, -0.9),
    SymmetricWellParams(-1.0, -0.999),
    AsymmetricWellParams(0.9, 1.0, 0.0, 1.0),
    AsymmetricWellParams(-0.5, 2.0, 0.3, 0.7),
    # alpha = 0 puts psi1's node at x = 0 exactly: log(0) in the log-space form
    AsymmetricWellParams(0.0, 1.0, 0.0, 0.5),
]


def kernel_points(L):
    # 0 and -0, +-L, beyond +-L, and |x| where exp(2 beta x) overflows
    far = np.array([1.5 * L, 400.0, 1e4, 1e300])
    return np.concatenate([[0.0, -0.0], np.linspace(-L, L, 257), far, -far])


@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=repr)
def test_joint_kernel_bit_identical_to_single_states(params):
    model = WellModel.build(params)
    xs = kernel_points(model.L)
    ref0, ref1 = reference_raw_pair(params)
    r0, r1 = _raw_states(params, xs)
    assert r0.tobytes() == ref0(xs).tobytes()
    assert r1.tobytes() == ref1(xs).tobytes()
    psi0, psi1 = model.states(xs)
    assert psi0.tobytes() == (model.norm0 * ref0(xs)).tobytes()
    assert psi1.tobytes() == (model.norm1 * ref1(xs)).tobytes()


@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=repr)
def test_build_constants_match_two_pass_reference(params):
    model = WellModel.build(params)
    assert (model.L, model.norm0, model.norm1) == reference_model_constants(params)


@pytest.mark.parametrize("fixture", ["sym_shallow", "asym_unit"])
def test_states_are_psi0_and_psi1(fixture, request):
    model = request.getfixturevalue(fixture)
    xs = kernel_points(model.L)
    psi0, psi1 = model.states(xs)
    assert psi0.tobytes() == model.psi0(xs).tobytes()
    assert psi1.tobytes() == model.psi1(xs).tobytes()
    for x in (0.0, 0.3, -model.L, 2.0 * model.L):
        pair = model.states(x)
        assert all(type(v) is float for v in pair)
        assert pair == (model.psi0(x), model.psi1(x))


def test_romberg_integrals_stop_at_their_own_levels():
    # exp converges at the minimum level 10, x^1.5 (singular derivative) at 15
    f, g = np.exp, (lambda x: x ** 1.5)
    joint = _romberg(lambda x: [f(x), g(x)], 0.0, 1.0)
    assert joint == [reference_romberg(f, 0.0, 1.0), reference_romberg(g, 0.0, 1.0)]


def test_romberg_first_call_holds_the_levels_up_to_min_level():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return [np.exp(x), x ** 1.5]

    _romberg(f, 0.0, 1.0)
    # endpoints and levels 1-10, then one call per level up to 15
    assert sizes == [2 + 1023, 1024, 2048, 4096, 8192, 16384]
    sizes.clear()
    _romberg(f, 0.0, 1.0, min_level=3)
    assert sizes == [2 + 7, *(2 ** (level - 1) for level in range(4, 16))]
    sizes.clear()
    with pytest.raises(ConvergenceFailure):
        _romberg(f, 0.0, 1.0, max_level=3)
    assert sizes == [2 + 7]


def test_romberg_stops_a_non_finite_integral_at_once():
    calls = []

    def f(x):
        calls.append(x.size)
        return [np.exp(x), np.where(x > 0.5, np.inf, 1.0)]

    exp_integral, bad = _romberg(f, 0.0, 1.0)
    assert exp_integral == reference_romberg(np.exp, 0.0, 1.0)
    assert not math.isfinite(bad) and calls == [1025]


@pytest.mark.parametrize("alpha, beta, e0, delta_e, state, integral", [
    # raw psi0 overflows the double range near its peak (x = -10.5), and
    # is 0 at every sample of the first ten Romberg levels on L = 7040
    (0.9609733766261678, 0.20427097840495922, 0.16418112620741843,
     139.9502933979702, "psi0", "0.0"),
    # raw psi0 overflows the double range near its peak (x = 24.9), and
    # the Romberg samples reach it on L = 8000
    (-0.907626958633722, 0.0572400416819177, 0.7908344039085955,
     25.377146036483598, "psi0", "inf"),
], ids=["underflow", "overflow"])
def test_build_refuses_a_well_it_cannot_normalise(alpha, beta, e0, delta_e,
                                                   state, integral):
    params = AsymmetricWellParams(alpha, beta, e0, delta_e)
    well = (f"asymmetric(alpha={alpha!r}, beta={beta!r}, e0={e0!r}, "
            f"delta_e={delta_e!r})")
    with pytest.raises(NonFinite) as info:
        WellModel.build(params)
    assert str(info.value).startswith(f"{state} of {well} cannot be normalised")
    assert str(info.value).endswith(f" is {integral}")


@pytest.mark.parametrize("alpha, beta, e0, delta_e", [
    # raw psi1 peaks near 1e-160: its unscaled square underflowed to 0
    (-0.24606173375989981, 0.1212006601858393, 1.0123830823673794,
     23.12201056578663),
    # raw psi0 peaks near 1e+160: its unscaled square overflowed
    (-0.9492916555169436, 0.12352093592660314, 0.9461652020064899,
     31.292291871987658),
    # raw psi1 peaks near 1e-159: its unscaled squares were partly
    # subnormal, which left it with mass 1.0167
    (-0.3711018119274111, 0.03491420175947719, -0.9433047125315692,
     2.0924916302617027),
], ids=["underflow", "overflow", "subnormal"])
def test_build_normalises_raw_peaks_far_from_one(alpha, beta, e0, delta_e):
    # each raw state is scaled by a power of two near its peak before squaring
    model = WellModel.build(AsymmetricWellParams(alpha, beta, e0, delta_e))
    assert _state_masses(model) == pytest.approx([1.0, 1.0], abs=1e-9)


def test_romberg_raises_when_unconverged():
    with pytest.raises(ConvergenceFailure, match=r"by level 3: last increment \d"):
        _romberg(lambda x: [np.exp(x)], 0.0, 1.0, max_level=3)
