"""Wigner transform engines, marginals, overlaps, negativity, fringes.

Independent oracles: the closed-form Gaussian Wigner function, direct
wavefunction densities |Psi|^2, a trapezoid Fourier transform for the
momentum marginal, and quadrature inner products for overlaps.
"""

import hashlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from doublewell import (
    HBAR,
    AsymmetricWellParams,
    GridMismatch,
    GridTooSmall,
    InvalidGrid,
    InvalidParameters,
    NoFringes,
    PhaseSpaceGrid,
    SuperpositionState,
    WignerField,
    SymmetricWellParams,
    WellModel,
    crop_momentum,
    domain_halfwidth,
    fringe_spacing,
    fringe_spacings,
    interference_midpoint,
    marginal_momentum,
    marginal_position,
    negativity,
    overlap_integral,
    parse_scenario,
    parse_scenario_text,
    run_scenario,
    total_mass,
    wigner_direct,
    wigner_fft,
    wigner_frames,
    wigner_negativity,
)
from doublewell import wigner
from conftest import GaussianState, ScaledState, field_for, reference_wigner_values

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "doublewell" / "scenarios"


class PureState:
    """Adapter exposing a single stationary eigenstate to the engines: the
    real basis pair (psi, 0) with coefficients (1, 0)."""

    def __init__(self, model, which):
        self.model = model
        self.which = which
        self.support_halfwidth = model.L

    def basis(self, x):
        x = np.asarray(x, dtype=float)
        fn = self.model.psi0 if self.which == 0 else self.model.psi1
        return fn(x), np.zeros(x.shape)

    def coefficients(self, t=0.0):
        return 1.0, 0.0

    def wavefunction(self, x, t=0.0):
        return self.basis(x)[0] + 0.0j


def count_local_maxima(values):
    return sum(1 for i in range(1, len(values) - 1)
               if values[i] > values[i - 1] and values[i] > values[i + 1])


# ---------------------------------------------------------------------------
# grid type
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(InvalidGrid):
        PhaseSpaceGrid(0.0, 1.0, 1, -1.0, 1.0, 8)
    with pytest.raises(InvalidGrid):
        PhaseSpaceGrid(1.0, 0.0, 8, -1.0, 1.0, 8)
    with pytest.raises(InvalidGrid):
        PhaseSpaceGrid(0.0, 1.0, 8, 1.0, -1.0, 8)
    g = PhaseSpaceGrid(0.0, 1.0, 11, -2.0, 2.0, 21)
    assert g.dx == pytest.approx(0.1)
    assert g.dp == pytest.approx(0.2)


def test_fft_momentum_lattice_formula():
    # dp = pi*hbar/(n_y*dy) with dy = 2*L/n_y, L the state's support
    wide = GaussianState()
    wide.support_halfwidth = 25.6
    xs = np.linspace(-2.0, 2.0, 16)
    field = wigner_fft(wide, xs, 0.0, n_y=1024, check_mass=False)
    dy = 2 * 25.6 / 1024
    assert dy == pytest.approx(0.05)
    assert field.grid.dp == pytest.approx(np.pi / (1024 * 0.05), rel=1e-12)


def test_fft_engine_input_validation(gaussian_state):
    xs = np.linspace(-2, 2, 16)
    with pytest.raises(InvalidParameters, match="power of two"):
        wigner_fft(gaussian_state, xs, 0.0, n_y=1000)
    with pytest.raises(InvalidGrid, match="uniform"):
        wigner_fft(gaussian_state, np.array([0.0, 1.0, 3.0]), 0.0, n_y=64)


def test_direct_engine_input_validation(gaussian_state):
    grid = PhaseSpaceGrid(-2.0, 2.0, 8, -2.0, 2.0, 8)
    with pytest.raises(InvalidParameters, match="even"):
        wigner_direct(gaussian_state, grid, 0.0, 10.0, n_y=129)
    with pytest.raises(InvalidParameters, match="n_y"):
        wigner_direct(gaussian_state, grid, 0.0, 10.0, n_y=32)


# ---------------------------------------------------------------------------
# Gaussian oracle
# ---------------------------------------------------------------------------

def test_gaussian_oracle_fft_path(gaussian_field):
    xs = gaussian_field.grid.x_axis()
    ps = gaussian_field.grid.p_axis()
    keep = np.abs(ps) <= 5.0
    X, P = np.meshgrid(xs, ps[keep], indexing="ij")
    exact = np.exp(-X ** 2 - P ** 2) / np.pi
    assert np.max(np.abs(gaussian_field.values[:, keep] - exact)) < 1e-6
    i0 = np.argmin(np.abs(xs))
    j0 = np.argmin(np.abs(ps))
    assert gaussian_field.values[i0, j0] == pytest.approx(1.0 / np.pi, abs=1e-6)


def test_gaussian_oracle_direct_path(gaussian_state):
    grid = PhaseSpaceGrid(-5.0, 5.0, 41, -5.0, 5.0, 41)
    field = wigner_direct(gaussian_state, grid, 0.0, y_halfwidth=10.0, n_y=1024)
    X, P = np.meshgrid(grid.x_axis(), grid.p_axis(), indexing="ij")
    exact = np.exp(-X ** 2 - P ** 2) / np.pi
    assert np.max(np.abs(field.values - exact)) < 1e-6
    assert field.method == "direct-quadrature"


# ---------------------------------------------------------------------------
# path equivalence and reality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture,theta,tfrac", [
    ("sym_neardegen", math.pi / 4, 0.125),
    ("asym_unit", math.pi / 4, 0.25),
    ("sym_shallow", 0.3, 0.0),
])
def test_fft_matches_direct_quadrature(fixture, theta, tfrac, request):
    model = request.getfixturevalue(fixture)
    state = SuperpositionState(model, theta)
    t = tfrac * state.beat_period()
    xs = np.linspace(-model.L, model.L, 32)
    fft_field = wigner_fft(state, xs, t, n_y=1024, check_mass=False)
    ps = fft_field.grid.p_axis()
    keep = np.abs(ps) <= 4.0
    grid = PhaseSpaceGrid(x_min=xs[0], x_max=xs[-1], n_x=xs.size,
                          p_min=float(ps[keep][0]), p_max=float(ps[keep][-1]),
                          n_p=int(keep.sum()))
    direct = wigner_direct(state, grid, t, y_halfwidth=model.L, n_y=1024,
                           check_mass=False)
    assert np.max(np.abs(direct.values - fft_field.values[:, keep])) < 1e-8


def test_imaginary_residual_diagnostic(cat_neardegen):
    t = cat_neardegen.beat_period() / 8
    field = field_for(cat_neardegen, t, n_x=64)
    assert field.imag_sup is not None
    assert field.imag_sup < 1e-12
    model = cat_neardegen.model
    xs = np.linspace(-model.L, model.L, 8)
    grid = PhaseSpaceGrid(xs[0], xs[-1], xs.size, -3.0, 3.0, 31)
    direct = wigner_direct(cat_neardegen, grid, t, y_halfwidth=model.L,
                           n_y=1024, check_mass=False)
    assert direct.imag_sup < 1e-12


def test_every_engine_reports_imag_sup(cat_neardegen):
    # with no argument, every field of every engine carries the imaginary
    # residue of its real transform: the basis engine on a superposition and
    # on a wrapped state, the single-time form and the direct quadrature
    model = cat_neardegen.model
    T = cat_neardegen.beat_period()
    xs = np.linspace(-model.L, model.L, 64)
    grid = PhaseSpaceGrid(xs[0], xs[-1], 8, -3.0, 3.0, 31)
    fields = [*wigner_frames(cat_neardegen, xs, [0.0, T / 8, T / 3], n_y=512),
              *wigner_frames(ScaledState(cat_neardegen, 1.0), xs, [0.0, T / 8],
                             n_y=512),
              wigner_fft(cat_neardegen, xs, T / 4, n_y=512),
              wigner_direct(cat_neardegen, grid, T / 8, y_halfwidth=model.L,
                            n_y=256, check_mass=False)]
    for field in fields:
        assert type(field.imag_sup) is float
        assert 0.0 <= field.imag_sup < 1e-12


def test_field_values_are_read_only(cat_field_t0):
    with pytest.raises(ValueError):
        cat_field_t0.values[0, 0] = 1.0


def test_field_rejects_non_finite_samples():
    from doublewell import NonFinite, WignerField
    grid = PhaseSpaceGrid(0.0, 1.0, 2, -1.0, 1.0, 2)
    for value in (np.nan, np.inf, -np.inf):
        bad = np.array([[0.0, value], [0.0, 0.0]])
        with pytest.raises(NonFinite):
            WignerField(grid=grid, values=bad, time=0.0, method="fourier")


def test_thread_count_never_changes_values(cat_neardegen):
    # wigner_fft ignores any threads >= 1
    t = cat_neardegen.beat_period() / 8
    serial = field_for(cat_neardegen, t, n_x=96)
    other = field_for(cat_neardegen, t, n_x=96, threads=3)
    assert np.array_equal(serial.values, other.values)


@pytest.mark.parametrize("missing", ["basis", "coefficients", "support_halfwidth"])
def test_fft_engines_refuse_states_without_the_basis_protocol(missing):
    # every FFT entry point names the member a state lacks, so a state that
    # exposes only a wavefunction is refused, not transformed per time
    members = {k: v for k, v in vars(GaussianState).items() if k != missing}
    state = type("Partial", (), members)()
    xs = np.linspace(-4.0, 4.0, 16)
    calls = [lambda: wigner_frames(state, xs, [0.0], n_y=64),
             lambda: wigner_fft(state, xs, 0.0, n_y=64),
             lambda: wigner.wigner_reduce(state, xs, [0.0],
                                          (wigner.PositionRows,), n_y=64),
             lambda: wigner_negativity(state, xs, [0.0], n_y=64),
             lambda: fringe_spacings(state, xs, 0.0, [0.0], n_y=64)]
    for call in calls:
        with pytest.raises(InvalidParameters, match=repr(missing)):
            call()


# ---------------------------------------------------------------------------
# basis engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture,theta", [
    ("sym_neardegen", math.pi / 4),
    ("sym_shallow", 0.3),
    ("asym_unit", math.pi / 4),
    ("asym_neardegen", 1.2),
])
def test_frames_match_per_time_reference(fixture, theta, request):
    model = request.getfixturevalue(fixture)
    state = SuperpositionState(model, theta)
    T = state.beat_period()
    times = [0.0, T / 8, 0.37 * T, 1.6 * T]
    xs = np.linspace(-model.L, model.L, 97)
    frames = wigner_frames(state, xs, times, n_y=512, check_mass=False)
    for t, field in zip(times, frames):
        ref = reference_wigner_values(state, xs, t, 512)
        assert np.max(np.abs(field.values - ref)) < 1e-12
        assert field.time == t


def _recorded_stationary(monkeypatch):
    # the stationary weights handed to every transform, in call order
    recorded = []
    transform = wigner._transform

    def recording(basis, xs, y, phase, stationary, *rest):
        recorded.append(stationary)
        return transform(basis, xs, y, phase, stationary, *rest)
    monkeypatch.setattr(wigner, "_transform", recording)
    return recorded


def test_plain_states_match_per_time_reference(sym_shallow, asym_unit,
                                               gaussian_state, monkeypatch):
    # wrapped, pure and oracle states run at any time, each with the
    # weights of its coefficients at t = 0
    cases = [ScaledState(SuperpositionState(asym_unit, 0.4), 2.0),
             PureState(sym_shallow, 1), gaussian_state]
    recorded = _recorded_stationary(monkeypatch)
    for state in cases:
        half = state.support_halfwidth
        xs = np.linspace(-half, half, 40)
        for t in (0.0, 1.3):
            field = wigner_fft(state, xs, t, n_y=256, check_mass=False)
            ref = reference_wigner_values(state, xs, t, 256)
            assert np.max(np.abs(field.values - ref)) < 1e-12
    assert recorded == [(4 * math.sin(0.4) ** 2, 4 * math.cos(0.4) ** 2)] * 2 + [
        (1.0, 0.0)] * 4


@pytest.mark.parametrize("wrap", [False, True])
def test_frame_does_not_depend_on_other_times(cat_neardegen, wrap):
    state = ScaledState(cat_neardegen, 1.0) if wrap else cat_neardegen
    T = cat_neardegen.beat_period()
    times = [0.0, T / 8, T / 4, 0.9 * T]
    xs = np.linspace(-cat_neardegen.model.L, cat_neardegen.model.L, 80)
    frames = wigner_frames(state, xs, times, n_y=256)
    backwards = wigner_frames(state, xs, times[::-1], n_y=256)[::-1]
    for k, t in enumerate(times):
        single = wigner_fft(state, xs, t, n_y=256)
        assert np.array_equal(single.values, frames[k].values)
        assert np.array_equal(single.values, backwards[k].values)


@pytest.mark.parametrize("theta", [math.pi / 4, 0.3])
def test_stationary_weights_are_exact_at_every_time(sym_neardegen, theta,
                                                    monkeypatch):
    # over 200 times of a beat, |c1(t)|^2 rounds to several doubles, but
    # every frame, alone or in one call, is combined with exactly
    # sin^2 theta and cos^2 theta
    state = SuperpositionState(sym_neardegen, theta)
    T = state.beat_period()
    times = [k * T / 200 for k in range(200)]
    assert len({abs(state.coefficients(t)[1]) ** 2 for t in times}) > 1
    recorded = _recorded_stationary(monkeypatch)
    xs = np.linspace(-sym_neardegen.L, sym_neardegen.L, 64)
    wigner_negativity(state, xs, times, n_y=64)
    for t in times[::20]:
        wigner_fft(state, xs, t, n_y=64)
    assert recorded == [(math.sin(theta) ** 2, math.cos(theta) ** 2)] * 11


class DriftingState(ScaledState):
    """A state whose |c0(t)|^2 grows by 1e-9 per unit of time."""

    def coefficients(self, t=0.0):
        c0, c1 = self.inner.coefficients(t)
        return c0 * math.sqrt(1.0 + 1e-9 * t), c1


@pytest.mark.parametrize("engine", [wigner_frames, wigner_negativity],
                         ids=lambda engine: engine.__name__)
def test_time_dependent_magnitudes_are_refused(cat_neardegen, engine):
    # the refusal names the first drifting time, before any block exists
    state = DriftingState(cat_neardegen, 1.0)
    T = cat_neardegen.beat_period()
    xs = np.linspace(-cat_neardegen.model.L, cat_neardegen.model.L, 256)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameters,
                           match=re.escape(f"t = {T / 4!r}") + ".*time-independent"):
            engine(state, xs, [0.0, T / 4, T / 2], n_y=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < wigner._BLOCK_BYTES


def test_output_does_not_depend_on_block_count(cat_neardegen, monkeypatch):
    # every frame of a multi-time call, for a superposition and for a
    # wrapped state, from one-row blocks up to the whole lattice
    T = cat_neardegen.beat_period()
    times = [0.0, T / 8, 0.6 * T]
    xs = np.linspace(-cat_neardegen.model.L, cat_neardegen.model.L, 70)
    states = (cat_neardegen, ScaledState(cat_neardegen, 1.0))
    base = [wigner_frames(s, xs, times, n_y=512) for s in states]
    for rows in (1, 3, 64, xs.size):
        monkeypatch.setattr(wigner, "_BLOCK_BYTES", 8 * 512 * rows)
        for state, expected in zip(states, base):
            frames = wigner_frames(state, xs, times, n_y=512)
            for got, want in zip(frames, expected, strict=True):
                assert np.array_equal(got.values, want.values)
                assert got.imag_sup == want.imag_sup


def test_frames_hold_only_frames_and_a_block(sym_neardegen, asym_unit):
    # beyond the frames themselves, the engine and negativity allocate a
    # few column blocks, never a lattice-sized basis stack or temporary
    block = wigner._BLOCK_BYTES
    for model, n_x, n_y, n_t in ((asym_unit, 512, 4096, 1),
                                 (sym_neardegen, 256, 1024, 8)):
        state = SuperpositionState(model, math.pi / 4)
        xs = np.linspace(-model.L, model.L, n_x)
        times = [k * state.beat_period() / n_t for k in range(n_t)]
        tracemalloc.start()
        try:
            frames = wigner_frames(state, xs, times, n_y=n_y)
            frames_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            negativity(frames[-1])
            negativity_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frame_bytes = 8 * n_t * n_x * n_y
        assert frames_peak - frame_bytes < 16 * block
        assert negativity_peak - frame_bytes < 4 * block


def test_frames_refuse_grids_above_budget(cat_neardegen):
    xs = np.linspace(-cat_neardegen.model.L, cat_neardegen.model.L, 8)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidGrid, match="byte budget"):
            wigner_frames(cat_neardegen, xs, [0.0], n_y=2 ** 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # the budget counts every frame: 8 x 2**24 doubles is exactly 1 GiB
    assert wigner.FRAME_BUDGET_BYTES == 8 * 8 * 2 ** 24
    wigner.check_frame_budget(1, 8, 2 ** 24)
    with pytest.raises(InvalidGrid, match="2 frame"):
        wigner.check_frame_budget(2, 8, 2 ** 24)


def test_reduced_frames_count_what_is_kept():
    # a frame that is only reduced keeps 2 (n_x + n_y) doubles, so many more
    # of them fit the budget than whole frames; the block bound still holds
    n_x, n_y = 256, 1024
    fit = wigner.FRAME_BUDGET_BYTES // (8 * 2 * (n_x + n_y))
    wigner.check_frame_budget(fit, n_x, n_y, held=False)
    with pytest.raises(InvalidGrid, match=f"{fit + 1} reduced frame"):
        wigner.check_frame_budget(fit + 1, n_x, n_y, held=False)
    with pytest.raises(InvalidGrid, match="600 frame"):
        wigner.check_frame_budget(600, n_x, n_y)
    with pytest.raises(InvalidGrid, match="column block"):
        wigner.check_frame_budget(1, 2, 2 ** 25, held=False)


@pytest.mark.parametrize("threads", [0, -1])
def test_frames_reject_bad_thread_count(cat_neardegen, threads):
    # wigner_fft keeps an inert threads keyword, still refused below 1
    xs = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(InvalidParameters, match="threads"):
        wigner_fft(cat_neardegen, xs, 0.0, n_y=64, threads=threads)


def test_frames_of_no_times_is_empty(cat_neardegen):
    xs = np.linspace(-cat_neardegen.model.L, cat_neardegen.model.L, 8)
    assert wigner_frames(cat_neardegen, xs, [], n_y=64) == []


# ---------------------------------------------------------------------------
# mass, marginals
# ---------------------------------------------------------------------------

def test_total_mass_is_unity(cat_field_t0, cat_field_quarter, gaussian_field):
    for field in (cat_field_t0, cat_field_quarter, gaussian_field):
        assert total_mass(field) == pytest.approx(1.0, abs=1e-6)


def test_grid_too_small_detected(cat_neardegen):
    xs = np.linspace(-3.0, 3.0, 64)
    with pytest.raises(GridTooSmall):
        wigner_fft(cat_neardegen, xs, 0.0)


@pytest.mark.parametrize("fixture,x_lo,x_hi,times", [
    # the packet starts in the right well and tunnels into the left one
    ("sym_neardegen", 0.0, None, (0.0, 0.5)),
    # the right tail beyond x = 1.6 holds 6.8e-4 of the mass at T/2, 1.2e-3 at 0
    ("asym_unit", None, 1.6, (0.5, 0.0)),
])
def test_grid_too_small_checked_per_frame(fixture, x_lo, x_hi, times, request,
                                          monkeypatch):
    # the check combines basis masses per frame; it must pass and fail on
    # exactly the frames whose own trapezoid mass shows the deficit, for
    # any block size
    model = request.getfixturevalue(fixture)
    state = SuperpositionState(model, np.pi / 4)
    xs = np.linspace(-model.L if x_lo is None else x_lo,
                     model.L if x_hi is None else x_hi, 128)
    ts = [f * state.beat_period() for f in times]
    fields = wigner_frames(state, xs, ts, n_y=256, check_mass=False)
    deficits = [1.0 - total_mass(f) for f in fields]
    assert deficits[0] < 1e-3 < deficits[1]
    for rows in (1, 3, 64, xs.size):
        monkeypatch.setattr(wigner, "_BLOCK_BYTES", 8 * 256 * rows)
        wigner_fft(state, xs, ts[0], n_y=256)
        for request_times in ([ts[1]], ts):
            with pytest.raises(GridTooSmall, match="total mass"):
                wigner_frames(state, xs, request_times, n_y=256)


@pytest.mark.parametrize("fixture,x_lo,x_hi,wrap", [
    ("sym_neardegen", None, None, None),
    ("asym_unit", None, None, None),
    ("sym_neardegen", 0.0, None, None),
    ("asym_unit", None, 1.6, None),
    ("sym_neardegen", None, None, "scaled"),
    ("asym_unit", None, None, "pure"),
], ids=["symmetric", "asymmetric", "cut-symmetric", "cut-asymmetric",
        "scaled", "pure"])
def test_mass_check_matches_frame_mass(fixture, x_lo, x_hi, wrap, request,
                                       monkeypatch):
    # the checked mass is the x trapezoid of |Psi|^2, read off no lattice; it
    # must equal each frame's own trapezoid mass
    model = request.getfixturevalue(fixture)
    state = SuperpositionState(model, np.pi / 4)
    if wrap == "scaled":
        state = ScaledState(state, 0.7)
    elif wrap == "pure":
        state = PureState(model, 1)
    xs = np.linspace(-model.L if x_lo is None else x_lo,
                     model.L if x_hi is None else x_hi, 128)
    T = 2.0 * math.pi * HBAR / model.delta_e
    checked = []
    monkeypatch.setattr(wigner, "_mass_check", checked.append)
    fields = wigner_frames(state, xs, [0.0, 0.3 * T, 0.5 * T], n_y=256)
    assert len(checked) == len(fields)
    for mass, field in zip(checked, fields):
        assert abs(mass - total_mass(field)) <= 1e-10


def test_integrals_match_nested_trapezoid(cat_field_t0, cat_field_quarter):
    def nested(values, grid):
        per_x = np.trapezoid(values, dx=grid.dp, axis=1)
        return float(np.trapezoid(per_x, dx=grid.dx))
    a, b = cat_field_t0, cat_field_quarter
    assert total_mass(a) == pytest.approx(nested(a.values, a.grid), rel=1e-13)
    assert overlap_integral(a, b) == pytest.approx(
        nested(a.values * b.values, a.grid), rel=1e-13)


def test_position_marginal_matches_density(cat_neardegen, cat_field_quarter):
    t = cat_field_quarter.time
    xs = cat_field_quarter.grid.x_axis()
    marg = marginal_position(cat_field_quarter)
    assert np.max(np.abs(marg - cat_neardegen.density(xs, t))) < 1e-6


def test_position_marginal_even_at_quarter_period(cat_field_quarter):
    marg = marginal_position(cat_field_quarter)
    assert np.max(np.abs(marg - marg[::-1])) < 1e-6


def test_position_marginal_stationary_state(sym_shallow):
    state = SuperpositionState(sym_shallow, math.pi / 2)
    f1 = field_for(state, 0.0, n_x=128)
    f2 = field_for(state, 5.0, n_x=128)
    xs = f1.grid.x_axis()
    expect = sym_shallow.psi0(xs) ** 2
    assert np.max(np.abs(marginal_position(f1) - expect)) < 1e-6
    assert np.max(np.abs(marginal_position(f1) - marginal_position(f2))) < 1e-10


def test_momentum_marginal_against_fourier_oracle(cat_neardegen, cat_field_quarter):
    ptilde = marginal_momentum(cat_field_quarter)
    ps = cat_field_quarter.grid.p_axis()
    model = cat_neardegen.model
    xd = np.linspace(-model.L, model.L, 8193)
    psi = cat_neardegen.wavefunction(xd, cat_field_quarter.time)
    keep = np.abs(ps) <= 6.0
    phi = np.array([np.trapezoid(psi * np.exp(-1j * p * xd), xd)
                    for p in ps[keep]]) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(ptilde[keep] - np.abs(phi) ** 2)) < 1e-6


def test_momentum_marginal_normalized(cat_field_t0):
    ptilde = marginal_momentum(cat_field_t0)
    ps = cat_field_t0.grid.p_axis()
    assert np.trapezoid(ptilde, ps) == pytest.approx(1.0, abs=1e-6)


def test_momentum_marginal_gaussian(gaussian_field):
    ps = gaussian_field.grid.p_axis()
    keep = np.abs(ps) <= 5.0
    expect = np.exp(-ps[keep] ** 2) / math.sqrt(np.pi)
    assert np.max(np.abs(marginal_momentum(gaussian_field)[keep] - expect)) < 1e-6


def test_momentum_fringes_appear_once_packet_splits(cat_neardegen, cat_field_t0,
                                                    cat_field_quarter):
    ps = cat_field_t0.grid.p_axis()
    band = np.abs(ps) <= 3.0
    # at t = 0 the packet sits in one well: a single smooth momentum hump
    assert count_local_maxima(marginal_momentum(cat_field_t0)[band]) == 1
    # by T/8 and T/4 it spans both wells and interferes
    t8 = field_for(cat_neardegen, cat_neardegen.beat_period() / 8)
    assert count_local_maxima(marginal_momentum(t8)[band]) >= 3
    assert count_local_maxima(marginal_momentum(cat_field_quarter)[band]) >= 3


def test_marginal_rejects_partial_fields(cat_field_t0):
    cropped = crop_momentum(cat_field_t0, 1.0)
    with pytest.raises(GridTooSmall):
        marginal_position(cropped)


# ---------------------------------------------------------------------------
# parity and periodicity
# ---------------------------------------------------------------------------

def test_real_state_gives_even_momentum_dependence(cat_field_t0):
    w = cat_field_t0.values
    # lattice index 0 is the unpaired -n/2 momentum; compare the rest
    assert np.max(np.abs(w[:, 1:] - w[:, 1:][:, ::-1])) < 1e-10


@pytest.mark.parametrize("which", [0, 1])
def test_stationary_state_parity_pattern(sym_shallow, which):
    state = PureState(sym_shallow, which)
    xs = np.linspace(-sym_shallow.L, sym_shallow.L, 63)
    field = wigner_fft(state, xs, 0.0, n_y=512, check_mass=False)
    w = field.values[:, 1:]
    assert np.max(np.abs(w - w[::-1, :])) < 1e-10      # W(-x, p) = W(x, p)
    assert np.max(np.abs(w - w[:, ::-1])) < 1e-10      # W(x, -p) = W(x, p)
    assert np.max(np.abs(w - w[::-1, ::-1])) < 1e-10   # both flips


def test_time_periodicity(cat_neardegen):
    T = cat_neardegen.beat_period()
    f1 = field_for(cat_neardegen, T / 8, n_x=64)
    f2 = field_for(cat_neardegen, T / 8 + T, n_x=64)
    assert np.max(np.abs(f1.values - f2.values)) < 1e-8


# ---------------------------------------------------------------------------
# overlap integral
# ---------------------------------------------------------------------------

def test_orthogonal_states_overlap_zero(sym_neardegen):
    f0 = field_for(PureState(sym_neardegen, 0), 0.0)
    f1 = field_for(PureState(sym_neardegen, 1), 0.0)
    assert abs(overlap_integral(f0, f1)) < 1e-8
    assert overlap_integral(f0, f1) == overlap_integral(f1, f0)


def test_self_overlap_constant_across_states(sym_neardegen, sym_shallow, asym_unit):
    values = []
    for model in (sym_neardegen, sym_shallow, asym_unit):
        f = field_for(PureState(model, 0), 0.0)
        values.append(overlap_integral(f, f))
    # pure-state self-overlap: same constant for every unit state
    assert values[0] == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-4)
    spread = (max(values) - min(values)) / min(values)
    assert spread < 1e-3


def test_superposition_overlap_with_component(cat_neardegen, cat_field_t0):
    f0 = field_for(PureState(cat_neardegen.model, 0), 0.0)
    ov = overlap_integral(cat_field_t0, f0)
    # |<Psi|psi0>|^2 = sin^2(pi/4) = 1/2, scaled by the 1/(2 pi) constant
    assert ov == pytest.approx(0.5 / (2.0 * np.pi), abs=1e-4)


def test_overlap_scales_quadratically(sym_shallow):
    base = PureState(sym_shallow, 0)
    f1 = field_for(base, 0.0)
    f2 = field_for(ScaledState(base, 2.0), 0.0, check_mass=False)
    f3 = field_for(ScaledState(base, 3.0), 0.0, check_mass=False)
    ref = overlap_integral(f1, f1)
    assert overlap_integral(f2, f3) == pytest.approx(36.0 * ref, rel=1e-10)


def test_overlap_grid_mismatch(cat_field_t0, gaussian_field):
    with pytest.raises(GridMismatch):
        overlap_integral(cat_field_t0, gaussian_field)


# ---------------------------------------------------------------------------
# negativity
# ---------------------------------------------------------------------------

def test_gaussian_has_no_negativity(gaussian_field):
    rep = negativity(gaussian_field)
    assert rep.negative_volume < 1e-8
    assert rep.min_value >= -1e-8


def test_localized_packet_negativity_small_but_nonzero(cat_field_t0):
    # one-well packet at t = 0: weak non-Gaussian tails only
    rep = negativity(cat_field_t0)
    assert 0.005 < rep.negative_volume < 0.012
    assert rep.min_value < 0


def test_split_packet_negativity_large(cat_field_quarter):
    # packet spanning both wells: strong central interference
    rep = negativity(cat_field_quarter)
    assert rep.negative_volume > 0.05
    assert rep.negative_volume == pytest.approx(0.3168, abs=5e-3)
    assert rep.min_value < -0.25
    assert abs(rep.min_location[0]) < 1.0


def _reference_row_volumes(field):
    # the full-lattice form of the trapezoid's sum identity whose bits the
    # emitted volume keeps: each row of min(W, 0), its two end samples
    # halved, added in one reduction, scaled by dp and negated
    m = np.minimum(field.values, 0.0)
    m[:, 0] *= 0.5
    m[:, -1] *= 0.5
    return 0.0 - field.grid.dp * np.add.reduce(m, axis=1)


def _assert_near_row_trapezoid(per_x, field):
    # independent of the reducer's order: each row volume is within a few
    # ulp of np.trapezoid's pairwise sum of its terms, plus a few of the
    # smallest subnormal per term, where a product rounds below the normal
    # range
    neg = np.maximum(-field.values, 0.0)
    dp, n_p = field.grid.dp, field.grid.n_p
    terms = dp * (neg[:, 1:] + neg[:, :-1]) / 2.0
    bound = (8 * np.finfo(float).eps * np.abs(terms).sum(axis=1)
             + 8 * n_p * np.finfo(float).smallest_subnormal)
    assert np.all(np.abs(per_x - np.trapezoid(neg, dx=dp, axis=1)) <= bound)


def _reference_negativity(field):
    per_x = _reference_row_volumes(field)
    i, j = np.unravel_index(int(np.argmin(field.values)), field.values.shape)
    return (float(np.trapezoid(per_x, dx=field.grid.dx)), float(field.values[i, j]),
            (float(field.grid.x_axis()[i]), float(field.grid.p_axis()[j])))


def test_negativity_keeps_trapezoid_order(cat_field_t0, cat_field_quarter,
                                          monkeypatch):
    # the minimum -0.5 sits at rows 1 and 5: the first one is reported
    tie = np.zeros((8, 6))
    tie[1, 2] = tie[5, 3] = -0.5
    tie[3, 0] = -0.25
    tied = WignerField(grid=PhaseSpaceGrid(-1.0, 1.0, 8, -2.0, 2.0, 6),
                       values=tie, time=0.0, method="fourier")
    for field in (cat_field_t0, cat_field_quarter, tied):
        expected = _reference_negativity(field)
        for rows in (1, 3, 64, field.grid.n_x):
            monkeypatch.setattr(wigner, "_BLOCK_BYTES", 8 * field.grid.n_p * rows)
            rep = negativity(field)
            assert (rep.negative_volume, rep.min_value, rep.min_location) == expected
    assert negativity(tied).min_location == (tied.grid.x_axis()[1], tied.grid.p_axis()[2])


class PeriodicState:
    """Time-independent plain state of period 1 in x.

    On the dyadic lattice below (support halfwidth 8, n_y 512, x step 1/8)
    every x + y is exact and ``mod`` keeps it exact, so rows one period
    apart are bit-identical and the frame's minimum ties across rows and
    blocks.
    """

    support_halfwidth = 8.0

    def basis(self, x):
        x = np.asarray(x, dtype=float)
        return np.cos(2.0 * np.pi * np.mod(x, 1.0)) / math.sqrt(8.0), np.zeros(x.shape)

    def coefficients(self, t=0.0):
        return 1.0, 0.0

    def wavefunction(self, x, t=0.0):
        return self.basis(x)[0] + 0.0j


def _report_bits(rep):
    values = [rep.negative_volume, rep.min_value, *rep.min_location]
    return np.array(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("params", [SymmetricWellParams(-1.0, -0.75),
                                    AsymmetricWellParams(0.9, 1.0, 0.0, 0.5)],
                         ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("n_x", [128, 129])
@pytest.mark.parametrize("copies", [1, 2])
def test_negativity_consumer_matches_frames(params, n_x, copies, monkeypatch):
    # reducing each block inside the transform gives negativity() of every
    # frame bit for bit, for any block size and however many frames share
    # the call (the times are given ``copies`` times over)
    model = WellModel.build(params)
    state = SuperpositionState(model, math.pi / 4)
    xs = np.linspace(-model.L, model.L, n_x)
    times = [f * state.beat_period() for f in (0.0, 0.25, 0.6)]
    frames = wigner_frames(state, xs, times, n_y=512)
    expected = [_report_bits(negativity(field)) for field in frames] * copies
    for rows in (1, 3, None):
        if rows is not None:
            monkeypatch.setattr(wigner, "_BLOCK_BYTES", 8 * 512 * rows)
        reports = wigner_negativity(state, xs, times * copies, n_y=512)
        assert [_report_bits(rep) for rep in reports] == expected


@pytest.mark.parametrize("copies", [1, 2])
def test_negativity_consumer_keeps_the_first_tied_minimum(copies, monkeypatch):
    # rows one period apart are identical, so the minimum ties in every
    # block; the first row's wins at any block size, in every frame of a
    # call that repeats the frame ``copies`` times
    state = PeriodicState()
    xs = np.linspace(-8.0, 8.0, 129)
    field = wigner_frames(state, xs, [0.0], n_y=512)[0]
    i, j = np.unravel_index(int(np.argmin(field.values)), field.values.shape)
    ties = np.flatnonzero((field.values == field.values[i, j]).any(axis=1))
    assert i == ties[0] < 8 and ties.size >= 16
    expected = _report_bits(negativity(field))
    assert expected == _report_bits(wigner.NegativityReport(
        *_reference_negativity(field)))
    for rows in (1, 3, None):
        if rows is not None:
            monkeypatch.setattr(wigner, "_BLOCK_BYTES", 8 * 512 * rows)
        reports = wigner_negativity(state, xs, [0.0] * copies, n_y=512)
        assert [_report_bits(rep) for rep in reports] == [expected] * copies


@pytest.mark.parametrize("scale", [np.nan, np.inf])
def test_negativity_consumer_rejects_non_finite_fields(cat_neardegen, scale):
    # no WignerField is built, so the reduction itself refuses the frame
    from doublewell import NonFinite
    xs = np.linspace(-cat_neardegen.model.L, cat_neardegen.model.L, 32)
    with np.errstate(invalid="ignore"), pytest.raises(NonFinite):
        wigner_negativity(ScaledState(cat_neardegen, scale), xs, [0.0], n_y=64)


def _result_bits(result):
    # a reducer's result as exact bits; a band keeps no imag_sup
    if isinstance(result, WignerField):
        return result.grid, result.time, result.values.view(np.int64).tolist()
    if isinstance(result, wigner.NegativityReport):
        return _report_bits(result)
    return result.view(np.int64).tolist()


def _all_reducers(p_max):
    return (wigner.Band(p_max), wigner.PositionRows, wigner.MomentumRows,
            wigner.NegativityRows)


def _held_bits(field, p_max):
    return tuple(_result_bits(r) for r in (
        crop_momentum(field, p_max), marginal_position(field),
        marginal_momentum(field), negativity(field)))


def test_marginals_keep_trapezoid_order(cat_field_t0, cat_field_quarter,
                                        monkeypatch):
    # the held marginals go through the reducers, row block by row block,
    # and still equal np.trapezoid over either axis bit for bit
    model = WellModel.build(AsymmetricWellParams(0.9, 1.0, 0.0, 0.5))
    odd = wigner_fft(SuperpositionState(model, math.pi / 4),
                     np.linspace(-model.L, model.L, 129), 0.0, n_y=256)
    for field in (cat_field_t0, cat_field_quarter, odd):
        grid = field.grid
        position = np.trapezoid(field.values, dx=grid.dp, axis=1)
        momentum = np.trapezoid(field.values, dx=grid.dx, axis=0)
        for rows in (1, 3, 64, grid.n_x):
            monkeypatch.setattr(wigner, "_BLOCK_BYTES", 8 * grid.n_p * rows)
            assert _result_bits(marginal_position(field)) == _result_bits(position)
            assert _result_bits(marginal_momentum(field)) == _result_bits(momentum)


@pytest.mark.parametrize("params", [SymmetricWellParams(-1.0, -0.75),
                                    AsymmetricWellParams(0.9, 1.0, 0.0, 0.5)],
                         ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("n_x", [128, 129])
@pytest.mark.parametrize("copies", [1, 2, 4])
def test_reducers_match_held_frames(params, n_x, copies, monkeypatch):
    # one transform reduces every frame to its band, both marginals and its
    # negativity, each equal to the held function of the frame bit for bit,
    # for any block size and however many frames share the call (the times
    # are given ``copies`` times over)
    model = WellModel.build(params)
    state = SuperpositionState(model, math.pi / 4)
    xs = np.linspace(-model.L, model.L, n_x)
    times = [f * state.beat_period() for f in (0.0, 0.25, 0.6)]
    frames = wigner_frames(state, xs, times, n_y=512)
    expected = [_held_bits(field, 3.0) for field in frames] * copies
    for rows in (1, 3, None):
        if rows is not None:
            monkeypatch.setattr(wigner, "_BLOCK_BYTES", 8 * 512 * rows)
        grid, results = wigner.wigner_reduce(state, xs, times * copies,
                                             _all_reducers(3.0), n_y=512)
        assert grid == frames[0].grid
        assert [tuple(map(_result_bits, r)) for r in results] == expected


@pytest.mark.parametrize("copies", [1, 2])
def test_reducers_keep_the_first_tied_minimum(copies, monkeypatch):
    # rows one period apart tie, in every block; every reducer still gives
    # the held function's bits, in every frame of a call that repeats the
    # frame ``copies`` times
    state = PeriodicState()
    xs = np.linspace(-8.0, 8.0, 129)
    field = wigner_frames(state, xs, [0.0], n_y=512)[0]
    expected = _held_bits(field, 4.0)
    for rows in (1, 3, None):
        if rows is not None:
            monkeypatch.setattr(wigner, "_BLOCK_BYTES", 8 * 512 * rows)
        _, got = wigner.wigner_reduce(state, xs, [0.0] * copies,
                                      _all_reducers(4.0), n_y=512)
        assert [tuple(map(_result_bits, r)) for r in got] == [expected] * copies


def _edge_fields():
    # hand-built fields at the edges of the reducers' arithmetic: signed
    # zeros, whole rows with nothing negative, subnormal samples, two
    # momenta, and no negative sample at all
    rng = np.random.default_rng(18)
    signed = rng.standard_normal((7, 6))
    signed[0, :4] = 0.0
    signed[2, 1] = signed[5, 0] = -0.0
    signed[3] = np.abs(signed[3])
    signed[4] = -0.0
    # steps with no short binary form, so that a subnormal dp * (a + b)
    # halved differs from (a + b) * (dp / 2) somewhere
    grid = PhaseSpaceGrid(-1.0, 1.0, 7, -math.pi, math.pi, 6)
    narrow = PhaseSpaceGrid(-1.0, 1.0, 7, -0.5, 0.5, 2)
    values = {"signed zeros": (grid, signed),
              "subnormal": (grid, signed * 1e-310),
              "n_p = 2": (narrow, signed[:, 1:3]),
              "nothing negative": (grid, np.abs(signed))}
    return {name: WignerField(grid=g, values=v, time=0.0, method="fourier")
            for name, (g, v) in values.items()}


@pytest.mark.parametrize("name", list(_edge_fields()))
@pytest.mark.parametrize("rows", [1, 3, 7])
def test_held_reducers_keep_trapezoid_bits_at_the_edges(name, rows,
                                                        monkeypatch):
    # block sizes 1 (a first block of one row), 3 (a last block of one
    # row) and the whole field; these fields have no unit mass, which the
    # marginals' guard would refuse
    field = _edge_fields()[name]
    grid = field.grid
    monkeypatch.setattr(wigner, "_BLOCK_BYTES", 8 * grid.n_p * rows)
    monkeypatch.setattr(wigner, "_unit_mass", lambda marginal, *_: marginal)
    per_x = []
    result = wigner.NegativityRows.result
    monkeypatch.setattr(wigner.NegativityRows, "result",
                        lambda self: per_x.append(self.row_volumes()) or result(self))
    position = np.trapezoid(field.values, dx=grid.dp, axis=1)
    momentum = np.trapezoid(field.values, dx=grid.dx, axis=0)
    assert _result_bits(marginal_position(field)) == _result_bits(position)
    assert _result_bits(marginal_momentum(field)) == _result_bits(momentum)
    rep = negativity(field)
    assert _report_bits(rep) == _report_bits(
        wigner.NegativityReport(*_reference_negativity(field)))
    # each row's volume too, so a row with nothing negative is +0.0
    assert _result_bits(per_x[0]) == _result_bits(_reference_row_volumes(field))
    if name == "nothing negative":
        assert rep.negative_volume == 0.0 and not np.signbit(rep.negative_volume)


@pytest.mark.parametrize("name", ["cat t = 0", "cat t = T/4", *_edge_fields()])
def test_negativity_rows_are_the_row_trapezoid(name, request):
    # the sum identity agrees with np.trapezoid of max(-W, 0) over each row
    # to a few ulp, on the cat fields and at the edges of the arithmetic
    cats = {"cat t = 0": "cat_field_t0", "cat t = T/4": "cat_field_quarter"}
    field = (request.getfixturevalue(cats[name]) if name in cats
             else _edge_fields()[name])
    reduce = wigner.NegativityRows(field.grid.n_x, field.grid, field.time)
    reduce(slice(0, field.grid.n_x), field.values.copy(), None)
    per_x = reduce.row_volumes()
    assert _result_bits(per_x) == _result_bits(_reference_row_volumes(field))
    _assert_near_row_trapezoid(per_x, field)
    nothing = ~(field.values < 0.0).any(axis=1)
    assert np.all(per_x[nothing] == 0.0) and not np.signbit(per_x[nothing]).any()


class PointState:
    """Time-independent plain state held at x = 0 alone.

    On the dyadic lattice below (support halfwidth 8, n_y 2048, x step
    1/8) only the column x = 0 is not zero, and there every momentum
    sample is positive: the frame has no negative sample.
    """

    support_halfwidth = 8.0

    def basis(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0.0, math.sqrt(8.0), 0.0), np.zeros(x.shape)

    def coefficients(self, t=0.0):
        return 1.0, 0.0


@pytest.mark.parametrize("state", [PointState(), PeriodicState()],
                         ids=["nothing negative", "periodic"])
def test_reducers_keep_trapezoid_bits_in_the_transform(state, monkeypatch):
    # inside the transform, at block sizes 1, 3 and whole, each reducer
    # equals np.trapezoid of the held frame over its axis, and the
    # negativity its full-lattice reference; a frame with nothing negative
    # reports a volume of +0.0
    n_y = 2048
    xs = np.linspace(-8.0, 8.0, 129)
    field = wigner_frames(state, xs, [0.0], n_y=n_y)[0]
    grid = field.grid
    expected = (_result_bits(np.trapezoid(field.values, dx=grid.dp, axis=1)),
                _result_bits(np.trapezoid(field.values, dx=grid.dx, axis=0)),
                _report_bits(wigner.NegativityReport(*_reference_negativity(field))))
    nothing_negative = isinstance(state, PointState)
    assert nothing_negative == (field.values.min() >= 0.0)
    for rows in (1, 3, xs.size):
        monkeypatch.setattr(wigner, "_BLOCK_BYTES", 8 * n_y * rows)
        _, [got] = wigner.wigner_reduce(
            state, xs, [0.0], (wigner.PositionRows, wigner.MomentumRows,
                               wigner.NegativityRows), n_y=n_y)
        assert tuple(map(_result_bits, got)) == expected
        for rep in (wigner_negativity(state, xs, [0.0], n_y=n_y)[0],
                    negativity(field)):
            assert _report_bits(rep) == expected[2]
            if nothing_negative:
                assert rep.negative_volume == 0.0
                assert not np.signbit(rep.negative_volume)


def test_halving_by_multiply_is_exact():
    # the reducers take dp * (a + b) / 2 as (dp * (a + b)) * 0.5: the same
    # correctly rounded double for every finite or infinite input
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 1 << 63, 200_000, dtype=np.int64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    subnormal = (bits & ((1 << 52) - 1)).view(np.float64)
    edges = np.array([0.0, 5e-324, 1e-323, 2.2250738585072014e-308,
                      2.225073858507201e-308, 1.7976931348623157e308, np.inf])
    for v in (x, subnormal, edges):
        v = np.concatenate((v, -v))
        assert np.array_equal((v * 0.5).view(np.int64),
                              (v / 2.0).view(np.int64))


def test_axis0_reduce_adds_rows_in_order():
    # MomentumRows folds its total into the first term and reduces over
    # axis 0, which must add the rows one at a time, in order
    rng = np.random.default_rng(1)
    for _ in range(60):
        r, n = int(rng.integers(1, 40)), int(rng.integers(1, 300))
        scale = 10.0 ** rng.integers(-8, 8, (r, 1))
        terms = rng.standard_normal((r, n)) * scale
        total = rng.standard_normal(n)
        loop = total.copy()
        for term in terms:
            np.add(loop, term, out=loop)
        np.add(total, terms[0], out=terms[0])
        np.add.reduce(terms, axis=0, out=total)
        assert np.array_equal(total.view(np.int64), loop.view(np.int64))


class FailingBlockState(SuperpositionState):
    """Raises while transforming the block whose first x column is
    ``x_fail``; the mass check, on the 1-D x grid, passes."""

    def __init__(self, model, theta, x_fail):
        super().__init__(model, theta)
        self.x_fail = x_fail

    def basis(self, x):
        if x.ndim == 2 and np.any(x[:, x.shape[1] // 2] == self.x_fail):
            raise ValueError("block failed")
        return super().basis(x)


def test_failed_block_releases_waiting_blocks(cat_neardegen, monkeypatch):
    # the blocks after a failed block are not run, and the call raises the
    # failed block's own error
    xs = np.linspace(-cat_neardegen.model.L, cat_neardegen.model.L, 64)
    state = FailingBlockState(cat_neardegen.model, math.pi / 4, xs[20])
    monkeypatch.setattr(wigner, "_BLOCK_BYTES", 8 * 256)
    with pytest.raises(ValueError, match="block failed"):
        wigner.wigner_reduce(
            state, xs, [0.0, 1.0], (wigner.MomentumRows, wigner.NegativityRows),
            n_y=256)


def test_negativity_reducer_goes_last(cat_neardegen):
    xs = np.linspace(-cat_neardegen.model.L, cat_neardegen.model.L, 16)
    with pytest.raises(InvalidParameters, match="last"):
        wigner.wigner_reduce(cat_neardegen, xs, [0.0],
                             (wigner.NegativityRows, wigner.PositionRows), n_y=64)


class InfiniteSampleState(SuperpositionState):
    """A superposition whose basis is +inf at one x sample."""

    def __init__(self, model, theta, x_inf):
        super().__init__(model, theta)
        self.x_inf = x_inf

    def basis(self, x):
        f0, f1 = super().basis(x)
        return np.where(x == self.x_inf, np.inf, f0), f1


def test_infinite_sample_fails_before_any_transform(cat_neardegen, monkeypatch):
    # the position-space mass is not finite, so NonFinite is raised by the
    # mass check on both paths, before any column is transformed
    from doublewell import NonFinite
    xs = np.linspace(-cat_neardegen.model.L, cat_neardegen.model.L, 32)
    state = InfiniteSampleState(cat_neardegen.model, math.pi / 4, xs[7])
    transforms = []
    monkeypatch.setattr(wigner, "_transform", lambda *args: transforms.append(args))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFinite, match="total mass"):
            wigner_negativity(state, xs, [0.0], n_y=64)
        with pytest.raises(NonFinite, match="total mass"):
            negativity(wigner_frames(state, xs, [0.0], n_y=64)[0])
    assert transforms == []


def test_figures_run_holds_no_frame(tmp_path):
    # fig4 asks for wigner, marginals and negativity at three times: one
    # transform keeps the bands, the marginals and the volumes, and every
    # table streams to disk, so the run stays below one 256 x 1024 frame
    # and one block's scratch (it held three frames and whole files)
    scenario = parse_scenario(SCENARIO_DIR / "fig4_symmetric.scn")
    tracemalloc.start()
    try:
        run_scenario(scenario, tmp_path / "fig4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_x, n_y = scenario.n_x, scenario.n_y
    block = wigner._block_scratch(wigner._block_step(n_y), n_y)
    assert peak < 8 * n_x * n_y + block


BEAT = """\
well.kind = symmetric
well.e0 = -1
well.e1 = -0.999
theta = pi/4
times = {times}
grid.n_x = {n_x}
grid.n_y = {n_y}
outputs = {outputs}
"""


def _beat(outputs, n_times=48, n_x=256, n_y=1024):
    times = ",".join(["0"] + [f"{k}T/{n_times}" for k in range(1, n_times)])
    return parse_scenario_text(BEAT.format(times=times, outputs=outputs,
                                           n_x=n_x, n_y=n_y), name="beat")


def test_negativity_only_run_holds_no_frame(tmp_path, monkeypatch):
    # 48 frames of 256 x 1024 would be 96 MiB; a negativity-only run
    # reduces each block in cache and never computes imag_sup
    residues = []
    monkeypatch.setattr(wigner, "_edge_residue",
                        lambda *args: residues.append(args) or [])
    scenario = _beat("negativity")
    tracemalloc.start()
    try:
        run_scenario(scenario, tmp_path / "neg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert residues == []


def test_dense_negativity_curve_keeps_its_bytes(tmp_path):
    # 48 frames of one beat on 65 x 256: one block of 64 rows, then a block
    # of one row.  The digest was taken from reducers that combined each
    # frame from the time-independent A and the cross part, and summed each
    # row of min(W, 0), its ends halved, in one reduction scaled by dp; any
    # change of combine or summation order shows
    run_scenario(_beat("negativity", n_x=65, n_y=256), tmp_path)
    table = (tmp_path / "beat_negativity.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == (
        "5130605a88c055f5d26f4aa3d6dd9ebc8d5b1b9605c13b0137d9a4618ea0d3ba")


@pytest.mark.parametrize("threads", [1, 2])
def test_negativity_shares_the_frames_transform(tmp_path, monkeypatch, threads):
    # with wigner and marginals, one transform feeds the kept frames and the
    # negativity reduction, and the table's bytes do not change
    transforms = []
    transform = wigner._transform

    def counted(*args):
        transforms.append(args[0])
        return transform(*args)
    monkeypatch.setattr(wigner, "_transform", counted)
    alone = tmp_path / "alone"
    run_scenario(_beat("negativity", 6), alone, threads=threads)
    assert len(transforms) == 1
    transforms.clear()
    both = tmp_path / "both"
    run_scenario(_beat("wigner, marginals, negativity", 6), both, threads=threads)
    assert len(transforms) == 1
    assert ((alone / "beat_negativity.csv").read_bytes()
            == (both / "beat_negativity.csv").read_bytes())


def test_first_excited_state_is_negative_somewhere(sym_shallow):
    field = field_for(PureState(sym_shallow, 1), 0.0)
    assert negativity(field).min_value < 0


# ---------------------------------------------------------------------------
# fringe spacing
# ---------------------------------------------------------------------------

def test_gaussian_profile_has_no_fringes(gaussian_field):
    with pytest.raises(NoFringes):
        fringe_spacing(gaussian_field, 0.0)


def test_symmetric_sweep_spacing_increases():
    spacings = []
    for de in (0.25, 0.5):
        model = WellModel.build(SymmetricWellParams(-1.0, -1.0 + de))
        state = SuperpositionState(model, math.pi / 4)
        field = field_for(state, state.beat_period() / 4)
        spacings.append(fringe_spacing(field, 0.0))
    assert spacings[0] == pytest.approx(0.88, abs=0.02)
    assert spacings[1] == pytest.approx(1.11, abs=0.02)
    assert spacings[0] < spacings[1]


def test_merged_trough_has_no_fringe_ladder():
    # dE = 0.75 merges the wells into one trough; the central cut keeps
    # exactly two genuine zero crossings at any resolution
    model = WellModel.build(SymmetricWellParams(-1.0, -0.25))
    state = SuperpositionState(model, math.pi / 4)
    field = field_for(state, state.beat_period() / 4)
    with pytest.raises(NoFringes):
        fringe_spacing(field, 0.0)
    with pytest.raises(NoFringes):
        fringe_spacing(field, 0.0, p_band=8.0)


def test_asymmetric_sweep_spacing_increases():
    spacings = []
    for de in (0.5, 4.0, 8.0):
        model = WellModel.build(AsymmetricWellParams(0.9, 1.0, 0.0, de))
        state = SuperpositionState(model, math.pi / 4)
        field = field_for(state, state.beat_period() / 4)
        spacings.append(fringe_spacing(field, interference_midpoint(state)))
    assert spacings[0] < spacings[1] < spacings[2]
    assert spacings[0] == pytest.approx(0.78, abs=0.03)
    assert spacings[2] == pytest.approx(3.18, abs=0.10)


@pytest.mark.parametrize("params", [SymmetricWellParams(-1.0, -0.75),
                                    AsymmetricWellParams(0.9, 1.0, 0.0, 0.5)],
                         ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("n_x", [128, 129])
@pytest.mark.parametrize("copies", [1, 2])
def test_one_column_spacings_match_frames(params, n_x, copies):
    # transforming only the column nearest x0 gives the frames' spacing bit for
    # bit, however many frames share the call (the times are given
    # ``copies`` times over); even n_x has no x = 0 column, and its two
    # central columns differ
    model = WellModel.build(params)
    state = SuperpositionState(model, math.pi / 4)
    x0 = 0.0 if model.kind == "symmetric" else interference_midpoint(state)
    xs = np.linspace(-model.L, model.L, n_x)
    times = [f * state.beat_period() for f in (0.25, 0.3, 0.6)]
    got = fringe_spacings(state, xs, x0, times * copies, 4.0, n_y=1024)
    frames = wigner_frames(state, xs, times, n_y=1024)
    assert got == [fringe_spacing(field, x0, 4.0) for field in frames] * copies
    dx = xs[1] - xs[0]
    assert got[1] != fringe_spacing(frames[1], x0 + dx, 4.0)


FRINGES_ONLY = """\
well.kind = asymmetric
well.alpha = 0.9
well.beta = 1
well.e0 = 0
sweep.delta_e = 0.5,4
times = T/4,T/2
grid.n_x = 512
grid.n_y = 4096
fringes.p_band = 6
outputs = fringes
"""


def test_fringes_only_run_holds_no_frame(tmp_path):
    # a fringes-only scenario transforms one column per frame: its traced
    # peak stays below a single (n_x, n_y) frame
    tracemalloc.start()
    try:
        run_scenario(parse_scenario_text(FRINGES_ONLY, name="lg"),
                     tmp_path / "fringes")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 512 * 4096
    # the frame path writes the same table
    with_frames = FRINGES_ONLY.replace("= fringes", "= fringes, negativity")
    run_scenario(parse_scenario_text(with_frames, name="lg"), tmp_path / "frames")
    assert ((tmp_path / "fringes" / "lg_fringes.csv").read_bytes()
            == (tmp_path / "frames" / "lg_fringes.csv").read_bytes())


def test_interference_midpoint_between_peaks(asym_unit):
    state = SuperpositionState(asym_unit, math.pi / 4)
    x0 = interference_midpoint(state)
    assert -2.0 < x0 < 0.5


# ---------------------------------------------------------------------------
# cropping
# ---------------------------------------------------------------------------

def test_crop_keeps_spacing_and_values(cat_field_t0):
    sub = crop_momentum(cat_field_t0, 3.0)
    assert sub.grid.dp == pytest.approx(cat_field_t0.grid.dp, rel=1e-12)
    assert np.all(np.abs(sub.grid.p_axis()) <= 3.0)
    ps = cat_field_t0.grid.p_axis()
    keep = np.abs(ps) <= 3.0
    assert np.array_equal(sub.values, cat_field_t0.values[:, keep])


@pytest.mark.parametrize("bound", [0.0, 1e-300, 0.5, 1.0, 3.0, 7.25, 1e300,
                                   math.inf, -1.0, math.nan])
def test_band_columns_are_the_mask_as_one_run(bound):
    # the slice picks what the |p| <= bound mask picks, on an ascending
    # axis with or without an exact 0, and an empty run never raises
    for ps in (np.linspace(-8.0, 7.75, 64), np.linspace(-3.1, 2.9, 31)):
        cols = wigner._band_columns(ps, bound)
        assert np.array_equal(ps[cols], ps[np.abs(ps) <= bound])


# ---------------------------------------------------------------------------
# properties over both families
# ---------------------------------------------------------------------------

@st.composite
def superpositions(draw):
    if draw(st.booleans()):
        e0 = draw(st.floats(-1.5, -0.5))
        params = SymmetricWellParams(e0, e0 * (1.0 - draw(st.floats(0.02, 0.5))))
    else:
        params = AsymmetricWellParams(alpha=draw(st.floats(-0.9, 0.9)),
                                      beta=draw(st.floats(0.7, 1.5)),
                                      e0=draw(st.floats(-1.0, 1.0)),
                                      delta_e=draw(st.floats(0.3, 6.0)))
    state = SuperpositionState(WellModel.build(params),
                               draw(st.floats(0.0, math.pi / 2)))
    return state, draw(st.floats(0.0, 1.0)) * state.beat_period()


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None,
                             derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(superpositions())
def test_property_beat_periodicity(case):
    state, t = case
    xs = np.linspace(-state.model.L, state.model.L, 64)
    now, later = wigner_frames(state, xs, [t, t + state.beat_period()], n_y=256,
                               check_mass=False)
    assert np.max(np.abs(now.values - later.values)) < 1e-12


@PROPERTY_SETTINGS
@given(superpositions())
def test_property_unit_mass_and_bound(case):
    state, t = case
    xs = np.linspace(-state.model.L, state.model.L, 128)
    field = wigner_fft(state, xs, t, n_y=512)
    assert total_mass(field) == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(field.values)) <= 1.0 / (math.pi * HBAR) + 1e-12


@PROPERTY_SETTINGS
@given(superpositions())
def test_property_position_marginal_is_density(case):
    state, t = case
    xs = np.linspace(-state.model.L, state.model.L, 128)
    field = wigner_fft(state, xs, t, n_y=512)
    assert np.max(np.abs(marginal_position(field) - state.density(xs, t))) < 1e-6


@PROPERTY_SETTINGS
@given(superpositions())
def test_property_symmetric_parity_sum_is_stationary(case):
    # psi0 is even and psi1 odd, so W01 is odd under (x, p) -> (-x, -p) and
    # W(x, p, t) + W(-x, -p, t) keeps only the time-independent W00 and W11
    state, t = case
    assume(state.model.kind == "symmetric")
    xs = np.linspace(-state.model.L, state.model.L, 64)
    sums = [f.values[:, 1:] + f.values[::-1, :0:-1]  # p_k and p_-k, k != -n_y/2
            for f in wigner_frames(state, xs, [0.0, t], n_y=256)]
    assert np.max(np.abs(sums[1] - sums[0])) < 1e-12


@PROPERTY_SETTINGS
@given(superpositions())
def test_property_domain_halfwidth_tail_condition(case):
    state, _ = case
    model = state.model
    L = domain_halfwidth(model.params)
    assert L == model.L
    peaks = model.states(np.linspace(-L, L, 4001))
    ends = model.states(np.array([-L, L]))
    for psi, tail in zip(peaks, ends):
        assert np.max(np.abs(tail)) <= 1e-10 * np.max(np.abs(psi))


def test_frames_refuse_blocks_above_budget(cat_neardegen):
    # a block is never narrower than one x row: 2 rows of 2**26 doubles fit
    # the frame budget, but one row's temporaries would need 8 GiB
    xs = np.linspace(-cat_neardegen.model.L, cat_neardegen.model.L, 2)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidGrid, match="column block of 1 x 67108864"):
            wigner_frames(cat_neardegen, xs, [0.0], n_y=2 ** 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    wigner.check_frame_budget(1, 2, 2 ** 24)
    with pytest.raises(InvalidGrid, match="column block of 1 x 33554432"):
        wigner.check_frame_budget(1, 2, 2 ** 25)


@pytest.mark.parametrize("engine", [wigner_frames, wigner_negativity],
                         ids=lambda engine: engine.__name__)
def test_block_budget_counts_the_measured_temporaries(engine):
    # one-row blocks through x = 0, where the closed forms run on every y;
    # the asymmetric well's 3-point grid passes the mass check, so the
    # block is transformed, and only wigner_frames holds its frame
    model = WellModel.build(AsymmetricWellParams(0.9, 1.0, 0.0, 1.0))
    state = SuperpositionState(model, math.pi / 4)
    n_y = 2 ** 17
    xs = np.linspace(-model.L, model.L, 3)
    held = 8 * xs.size * n_y if engine is wigner_frames else 0
    tracemalloc.start()
    try:
        engine(state, xs, [0.0], n_y=n_y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= wigner._BLOCK_TEMPORARIES * 8 * n_y
