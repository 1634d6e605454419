import numpy as np
import pytest

from doublewell import (
    HBAR,
    AsymmetricWellParams,
    SuperpositionState,
    SymmetricWellParams,
    WellModel,
    wigner_fft,
)


class GaussianState:
    """Unit-frequency oscillator ground state; closed-form Wigner oracle.

    psi(x) = pi^(-1/4) exp(-x^2/2)  ->  W(x, p) = exp(-x^2 - p^2) / pi.
    """

    support_halfwidth = 10.0

    def wavefunction(self, x, t=0.0):
        x = np.asarray(x, dtype=float)
        return np.pi ** -0.25 * np.exp(-(x ** 2) / 2.0) + 0.0j

    def describe(self):
        return "gaussian"


class ScaledState:
    """Wraps a state, multiplying the amplitude by a constant (for
    bilinearity checks on non-normalized inputs)."""

    def __init__(self, inner, scale):
        self.inner = inner
        self.scale = scale
        self.support_halfwidth = getattr(inner, "support_halfwidth", None)

    @property
    def model(self):
        return self.inner.model

    def wavefunction(self, x, t=0.0):
        return self.scale * self.inner.wavefunction(x, t)


def reference_wigner_values(state, xs, t, n_y, y_halfwidth=None):
    """Per-time correlation + FFT: Psi on two (n_x, n_y) lattices, one ifft.

    Independent of the basis engine; the engine is held to it at 1e-12.
    """
    y_halfwidth = y_halfwidth or state.support_halfwidth
    dy = 2.0 * y_halfwidth / n_y
    y = (np.arange(n_y) - n_y // 2) * dy
    alt = np.where(np.arange(n_y) % 2, -1.0, 1.0)
    corr = (np.conj(state.wavefunction(xs[:, None] + y[None, :], t))
            * state.wavefunction(xs[:, None] - y[None, :], t))
    spectrum = n_y * np.fft.ifft(alt[None, :] * corr, axis=1)
    return (alt[None, :] * spectrum * (dy / (np.pi * HBAR))).real


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
    return wigner_fft(gaussian_state, xs, 0.0, n_y=1024, y_halfwidth=10.0)
