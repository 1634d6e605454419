import math
import sys

import numpy as np
import pytest

from doublewell import (
    HBAR,
    AsymmetricWellParams,
    NoDecay,
    SuperpositionState,
    SymmetricWellParams,
    WellModel,
    wigner_fft,
)
from doublewell.wellcore import _logcosh, _sym_denominator


class GaussianState:
    """Unit-frequency oscillator ground state; closed-form Wigner oracle.

    psi(x) = pi^(-1/4) exp(-x^2/2)  ->  W(x, p) = exp(-x^2 - p^2) / pi.
    A real state: the basis pair (psi, 0) with coefficients (1, 0).
    """

    support_halfwidth = 10.0

    def basis(self, x):
        x = np.asarray(x, dtype=float)
        return np.pi ** -0.25 * np.exp(-(x ** 2) / 2.0), np.zeros(x.shape)

    def coefficients(self, t=0.0):
        return 1.0, 0.0

    def wavefunction(self, x, t=0.0):
        return self.basis(x)[0] + 0.0j

    def describe(self):
        return "gaussian"


class ScaledState:
    """Wraps a state, multiplying the amplitude by a constant (for
    bilinearity checks on non-normalized inputs): the inner basis with
    scaled coefficients."""

    def __init__(self, inner, scale):
        self.inner = inner
        self.scale = scale
        self.support_halfwidth = getattr(inner, "support_halfwidth", None)

    @property
    def model(self):
        return self.inner.model

    def basis(self, x):
        return self.inner.basis(x)

    def coefficients(self, t=0.0):
        c0, c1 = self.inner.coefficients(t)
        return self.scale * c0, self.scale * c1

    def wavefunction(self, x, t=0.0):
        return self.scale * self.inner.wavefunction(x, t)


def reference_wigner_values(state, xs, t, n_y):
    """Per-time correlation + FFT: Psi on two (n_x, n_y) lattices, one ifft.

    Independent of the basis engine; the engine is held to it at 1e-12.
    """
    dy = 2.0 * state.support_halfwidth / n_y
    y = (np.arange(n_y) - n_y // 2) * dy
    alt = np.where(np.arange(n_y) % 2, -1.0, 1.0)
    corr = (np.conj(state.wavefunction(xs[:, None] + y[None, :], t))
            * state.wavefunction(xs[:, None] - y[None, :], t))
    spectrum = n_y * np.fft.ifft(alt[None, :] * corr, axis=1)
    return (alt[None, :] * spectrum * (dy / (np.pi * HBAR))).real


# Single-state closed forms, one evaluation per state; the joint kernel
# WellModel.states is held to them bit for bit.

def _ref_sym_psi0_raw(a, b, x):
    s = np.abs(x)
    den, e2a, e2b = _sym_denominator(a, b, s)
    return (a - b) * np.exp(-a * s) * (1.0 + e2b) / den


def _ref_sym_psi1_raw(a, b, x):
    s = np.abs(x)
    den, e2a, e2b = _sym_denominator(a, b, s)
    return np.sign(x) * (a - b) * np.exp(-b * s) * (1.0 - e2a) / den


def _ref_asym_log_env_exponent(p, x):
    u = p.beta * np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        g = ((1.0 + p.alpha) * np.exp(2.0 * u)
             + (1.0 - p.alpha) * np.exp(-2.0 * u)) / 4.0 + 0.5 + p.alpha * u
    c = p.delta_e / (4.0 * p.beta ** 2)
    return -c * g


def _ref_asym_psi0_raw(p, x):
    u = p.beta * np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(_logcosh(u) + _ref_asym_log_env_exponent(p, x))


def _ref_asym_psi1_raw(p, x):
    u = p.beta * np.asarray(x, dtype=float)
    pref = p.alpha + np.tanh(u)
    with np.errstate(over="ignore", divide="ignore"):
        mag = np.exp(_logcosh(u) + np.log(np.abs(pref))
                     + _ref_asym_log_env_exponent(p, x))
    return np.sign(pref) * mag


def reference_raw_pair(params):
    """(psi0, psi1) unnormalized closed forms, each evaluated on its own."""
    if isinstance(params, SymmetricWellParams):
        a, b = params.a, params.b
        return (lambda x: _ref_sym_psi0_raw(a, b, np.asarray(x, dtype=float)),
                lambda x: _ref_sym_psi1_raw(a, b, np.asarray(x, dtype=float)))
    return (lambda x: _ref_asym_psi0_raw(params, x),
            lambda x: _ref_asym_psi1_raw(params, x))


def reference_romberg(f, a, b, rel_tol=1e-12, min_level=10, max_level=24):
    h = b - a
    table = [0.5 * h * float(f(np.array([a]))[0] + f(np.array([b]))[0])]
    for level in range(1, max_level + 1):
        m = 2 ** (level - 1)
        step = h / (2 * m)
        xs = a + step * (2.0 * np.arange(m) + 1.0)
        row = [0.5 * table[0] + step * float(np.sum(f(xs)))]
        for k in range(1, level + 1):
            factor = 4.0 ** k
            row.append((factor * row[k - 1] - table[k - 1]) / (factor - 1.0))
        prev_best = table[-1]
        table = row
        if level >= min_level and abs(row[-1] - prev_best) <= rel_tol * abs(row[-1]):
            return row[-1]
    return table[-1]


def reference_model_constants(params, tail_rel=1e-10, out_of_range=None):
    """(L, norm0, norm1) from per-state tail tests and two Romberg passes
    over the unscaled squares.

    If ``out_of_range`` is a list, ``params`` is appended to it once for
    each Romberg evaluation in which a nonzero raw sample squares to a
    subnormal, zero or non-finite double.
    """
    psi0, psi1 = reference_raw_pair(params)

    def square(psi):
        def f(x):
            r = psi(x)
            with np.errstate(over="ignore"):
                sq = r ** 2
            normal = (sq >= sys.float_info.min) & (sq <= sys.float_info.max)
            if out_of_range is not None and np.any((r != 0.0) & ~normal):
                out_of_range.append(params)
            return sq
        return f

    def tails_ok(L):
        xs = np.linspace(-L, L, 4001)
        ends = np.array([-L, L])
        for psi in (psi0, psi1):
            vals = np.abs(psi(xs))
            if not np.all(np.isfinite(vals)):
                return False
            peak = vals.max()
            if peak == 0.0 or np.abs(psi(ends)).max() > tail_rel * peak:
                return False
        return True

    hi = 4.0
    while not tails_ok(hi):
        hi *= 2.0
        if hi > 1e4:
            raise NoDecay(f"no halfwidth below 1e4 for {params!r}")
    lo = hi / 2.0
    while lo > 0.25 and tails_ok(lo):
        hi = lo
        lo /= 2.0
    while (hi - lo) > 0.01 * hi:
        mid = 0.5 * (lo + hi)
        if tails_ok(mid):
            hi = mid
        else:
            lo = mid
    n0 = reference_romberg(square(psi0), -hi, hi)
    n1 = reference_romberg(square(psi1), -hi, hi)
    return hi, *(1.0 / math.sqrt(n) if n > 0.0 else math.inf for n in (n0, n1))


def field_for(state, t, n_x=256, n_y=1024, **kw):
    xs = np.linspace(-state.model.L, state.model.L, n_x)
    return wigner_fft(state, xs, t, n_y=n_y, **kw)


@pytest.fixture(scope="session")
def sym_shallow():
    return WellModel.build(SymmetricWellParams(e0=-1.0, e1=-0.9))


@pytest.fixture(scope="session")
def sym_neardegen():
    return WellModel.build(SymmetricWellParams(e0=-1.0, e1=-0.999))


@pytest.fixture(scope="session")
def asym_unit():
    return WellModel.build(AsymmetricWellParams(alpha=0.9, beta=1.0, e0=0.0, delta_e=1.0))


@pytest.fixture(scope="session")
def asym_neardegen():
    return WellModel.build(AsymmetricWellParams(alpha=0.9, beta=1.0, e0=0.0, delta_e=0.001))


@pytest.fixture(scope="session")
def cat_neardegen(sym_neardegen):
    return SuperpositionState(sym_neardegen, np.pi / 4)


@pytest.fixture(scope="session")
def cat_field_t0(cat_neardegen):
    return field_for(cat_neardegen, 0.0)


@pytest.fixture(scope="session")
def cat_field_quarter(cat_neardegen):
    return field_for(cat_neardegen, cat_neardegen.beat_period() / 4.0)


@pytest.fixture(scope="session")
def gaussian_state():
    return GaussianState()


@pytest.fixture(scope="session")
def gaussian_field(gaussian_state):
    xs = np.linspace(-5.0, 5.0, 101)
    return wigner_fft(gaussian_state, xs, 0.0, n_y=1024)
