"""Closed-form double-well potentials and their two lowest eigenstates.

Two partially solvable families are provided, both built from a multiplier
function phi relating the first excited state to the ground state via
psi1 = phi * psi0:

* symmetric wells, phi(x) = sinh(a x)/cosh(b x) with a = sqrt(-E0),
  b = sqrt(-E1) and E0 < E1 < 0;
* asymmetric wells, phi(x) = alpha + tanh(beta x), parameterized by
  (alpha, beta, E0, delta_e).

Units: hbar = 1 and m = 1/2, so the stationary equation reads
-psi'' + V psi = E psi.  All lengths, momenta, energies, and times are
reported in these units.

Both states are always evaluated together (:meth:`WellModel.states`):
the symmetric forms share one denominator, the asymmetric forms share
log cosh(beta x) and the envelope exponent, and every caller that needs
both states (normalization, the domain search, and
:meth:`SuperpositionState.basis`, which the wavefunction and the Wigner
engine share) gets them from one call.  ``psi0``/``psi1`` are views of
the pair with identical bits.

Evaluation is overflow-safe: the symmetric forms factor out the dominant
exponential and use parity, the asymmetric forms work in log space, so
|x| far beyond the support simply underflows to zero instead of
producing NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegenerateSplitting,
    InvalidParameters,
    NoDecay,
    NonFinite,
)

HBAR = 1.0

__all__ = [
    "HBAR",
    "SymmetricWellParams",
    "AsymmetricWellParams",
    "WellModel",
    "SuperpositionState",
    "domain_halfwidth",
]


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricWellParams:
    """Parameters of the symmetric family.

    Requires E0 < E1 < 0 so that a = sqrt(-E0) > b = sqrt(-E1) > 0.
    """

    e0: float
    e1: float

    def __post_init__(self):
        if not self.e1 < 0:
            raise InvalidParameters(
                f"symmetric well needs E1 < 0, got E1={self.e1}")
        if not self.e0 < self.e1:
            raise InvalidParameters(
                f"symmetric well needs E0 < E1, got E0={self.e0}, E1={self.e1}")

    @property
    def a(self) -> float:
        return math.sqrt(-self.e0)

    @property
    def b(self) -> float:
        return math.sqrt(-self.e1)

    @property
    def delta_e(self) -> float:
        return self.e1 - self.e0


@dataclass(frozen=True)
class AsymmetricWellParams:
    """Parameters of the asymmetric family phi = alpha + tanh(beta x).

    beta and delta_e must be positive, and beta**2 a finite nonzero double;
    e1 is derived as e0 + delta_e.
    Values |alpha| >= 1 produce non-normalizable closed forms and are
    rejected later by the domain-halfwidth search (NoDecay).
    """

    alpha: float
    beta: float
    e0: float
    delta_e: float

    def __post_init__(self):
        # the envelope divides by beta**2, which a tiny beta underflows to
        # 0 and a huge one overflows (a float ** raises OverflowError)
        if not (self.beta > 0 and 0.0 < self.beta * self.beta < math.inf):
            raise InvalidParameters(
                f"beta must be > 0 with a finite nonzero square, got {self.beta}")
        if not self.delta_e > 0:
            raise InvalidParameters(f"delta_e must be > 0, got {self.delta_e}")

    @property
    def e1(self) -> float:
        return self.e0 + self.delta_e


WellParams = SymmetricWellParams | AsymmetricWellParams


# ---------------------------------------------------------------------------
# raw (unnormalized) closed forms
# ---------------------------------------------------------------------------

def _logcosh(u):
    # log(cosh u) without overflow: |u| - log 2 + log1p(exp(-2|u|))
    au = np.abs(u)
    return au - math.log(2.0) + np.log1p(np.exp(-2.0 * au))


def _sym_denominator(a: float, b: float, s):
    # common denominator of the symmetric psi0/psi1, divided by
    # exp(2(a+b)s); every exponential has a non-positive argument.
    e2a = np.exp(-2.0 * a * s)
    e2b = np.exp(-2.0 * b * s)
    return (1.0 + e2a * e2b) * (a - b) + (a + b) * (e2a + e2b), e2a, e2b


def _asym_log_env_exponent(p: AsymmetricWellParams, u):
    # exponent of the shared envelope exp(-c*g) with c = dE/(4 beta^2) and
    # g = cosh^2(u) + alpha*u + (alpha/2) sinh(2u), u = beta*x.  Grouping the
    # exponentials as ((1+alpha)e^{2u} + (1-alpha)e^{-2u})/4 avoids the
    # inf - inf cancellation of the naive form at large |u|.
    with np.errstate(over="ignore"):
        g = ((1.0 + p.alpha) * np.exp(2.0 * u)
             + (1.0 - p.alpha) * np.exp(-2.0 * u)) / 4.0 + 0.5 + p.alpha * u
    c = p.delta_e / (4.0 * p.beta ** 2)
    return -c * g


def _raw_states(params: WellParams, x):
    """Unnormalized (psi0, psi1) at ``x`` from one shared evaluation.

    Symmetric: both states share the denominator and its exponentials.
    Asymmetric: psi1 = (alpha + tanh u) psi0 up to normalization, so both
    share log cosh(u) and the envelope exponent; alpha cosh(u) + sinh(u)
    is cosh(u) (alpha + tanh(u)), whose second factor is bounded, so the
    magnitude is safe in log space.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(params, SymmetricWellParams):
        a, b = params.a, params.b
        s = np.abs(x)
        den, e2a, e2b = _sym_denominator(a, b, s)
        return ((a - b) * np.exp(-a * s) * (1.0 + e2b) / den,
                np.sign(x) * (a - b) * np.exp(-b * s) * (1.0 - e2a) / den)
    u = params.beta * x
    pref = params.alpha + np.tanh(u)
    with np.errstate(over="ignore", divide="ignore"):
        logcosh = _logcosh(u)
        env = _asym_log_env_exponent(params, u)
        return (np.exp(logcosh + env),
                np.sign(pref) * np.exp(logcosh + np.log(np.abs(pref)) + env))


# ---------------------------------------------------------------------------
# domain halfwidth and normalization
# ---------------------------------------------------------------------------

def domain_halfwidth(params: WellParams, tail_rel: float = 1e-10) -> float:
    """Halfwidth L such that both |psi0| and |psi1| at +-L have fallen
    below ``tail_rel`` times their respective peak amplitude.

    The search doubles L starting from 4 until the tail condition holds,
    then bisects the bracket down to 1% relative precision.  Raises
    :class:`NoDecay` once L exceeds 1e4, which signals parameters whose
    closed forms do not decay (e.g. |alpha| >= 1).
    """
    if not 0.0 < tail_rel < 1.0:
        raise InvalidParameters(f"tail_rel must be in (0, 1), got {tail_rel}")

    def tails_ok(L: float) -> bool:
        # the grid holds -L and L exactly as its end samples
        for psi in _raw_states(params, np.linspace(-L, L, 4001)):
            vals = np.abs(psi)
            if not np.all(np.isfinite(vals)):
                return False
            peak = vals.max()
            if peak == 0.0 or max(vals[0], vals[-1]) > tail_rel * peak:
                return False
        return True

    hi = 4.0
    while not tails_ok(hi):
        hi *= 2.0
        if hi > 1e4:
            raise NoDecay(
                f"no halfwidth below 1e4 satisfies tail_rel={tail_rel}; "
                "parameters likely non-normalizable")
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
    return hi


def _romberg(f, a: float, b: float, rel_tol: float = 1e-12,
             min_level: int = 10, max_level: int = 24) -> list[float]:
    """Richardson-refined composite trapezoid of several integrands on [a, b].

    ``f(xs)`` returns one array per integrand, so every level costs one
    call for all of them.  Each integral keeps its own table and stops at
    the first level >= ``min_level`` whose increment is within ``rel_tol``
    of its value; later levels leave it untouched.  Raises
    :class:`ConvergenceFailure` if any integral is still moving at
    ``max_level``.
    """
    h = b - a
    tables = [[0.5 * h * float(ya[0] + yb[0])]
              for ya, yb in zip(f(np.array([a])), f(np.array([b])))]
    results: list[float | None] = [None] * len(tables)
    increments = [math.inf] * len(tables)
    for level in range(1, max_level + 1):
        m = 2 ** (level - 1)
        step = h / (2 * m)
        xs = a + step * (2.0 * np.arange(m) + 1.0)
        for i, ys in enumerate(f(xs)):
            if results[i] is not None:
                continue
            table = tables[i]
            row = [0.5 * table[0] + step * float(np.sum(ys))]
            for k in range(1, level + 1):
                factor = 4.0 ** k
                row.append((factor * row[k - 1] - table[k - 1]) / (factor - 1.0))
            tables[i] = row
            increments[i] = abs(row[-1] - table[-1])
            if level >= min_level and increments[i] <= rel_tol * abs(row[-1]):
                results[i] = row[-1]
        if None not in results:
            return results
    i = results.index(None)
    raise ConvergenceFailure(
        f"Romberg quadrature of integrand {i} on [{a!r}, {b!r}] did not "
        f"converge by level {max_level}: last increment {increments[i]:.3e} "
        f"exceeds {rel_tol:.0e} of the value {tables[i][-1]:.6e}")


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WellModel:
    """One double-well instance with unit-norm closed-form eigenstates.

    Construct via :meth:`WellModel.build`, which fixes the evaluation
    domain [-L, L] from the tail threshold and the normalization
    constants by Richardson-refined trapezoid quadrature (relative
    tolerance 1e-12; :class:`ConvergenceFailure` if either norm is still
    moving at the last level).  Sign conventions: psi0(0) > 0 and psi1 has
    positive slope at its node.

    All methods are pure and accept scalars or numpy arrays.
    """

    params: WellParams
    halfwidth: float
    norm0: float
    norm1: float
    tail_rel: float = 1e-10

    @classmethod
    def build(cls, params: WellParams, tail_rel: float = 1e-10) -> "WellModel":
        L = domain_halfwidth(params, tail_rel)
        n0, n1 = _romberg(lambda x: [r ** 2 for r in _raw_states(params, x)],
                          -L, L)
        return cls(params=params, halfwidth=L,
                   norm0=1.0 / math.sqrt(n0), norm1=1.0 / math.sqrt(n1),
                   tail_rel=tail_rel)

    # -- derived scalars ----------------------------------------------------

    @property
    def kind(self) -> str:
        return ("symmetric" if isinstance(self.params, SymmetricWellParams)
                else "asymmetric")

    @property
    def e0(self) -> float:
        return self.params.e0

    @property
    def e1(self) -> float:
        return self.params.e1

    @property
    def delta_e(self) -> float:
        return self.e1 - self.e0

    @property
    def L(self) -> float:
        return self.halfwidth

    def describe(self) -> str:
        p = self.params
        if isinstance(p, SymmetricWellParams):
            return f"symmetric(e0={p.e0!r}, e1={p.e1!r})"
        return (f"asymmetric(alpha={p.alpha!r}, beta={p.beta!r}, "
                f"e0={p.e0!r}, delta_e={p.delta_e!r})")

    # -- pointwise closed forms ----------------------------------------------

    def phi(self, x):
        """Multiplier function relating the two states, psi1 propto phi*psi0."""
        x = np.asarray(x, dtype=float)
        p = self.params
        if isinstance(p, SymmetricWellParams):
            # sinh(a x)/cosh(b x) in log space; sign(0) = 0 keeps phi(0) = 0.
            s = np.abs(x)
            with np.errstate(divide="ignore", over="ignore"):
                logsinh = np.where(s > 0.0,
                                   p.a * s + np.log1p(-np.exp(-2.0 * p.a * s))
                                   - math.log(2.0),
                                   -np.inf)
                out = np.sign(x) * np.exp(logsinh - _logcosh(p.b * s))
        else:
            out = p.alpha + np.tanh(p.beta * x)
        return out if out.ndim else float(out)

    def chi(self, x):
        """Negative logarithmic derivative of the ground state, -psi0'/psi0."""
        x = np.asarray(x, dtype=float)
        p = self.params
        if isinstance(p, SymmetricWellParams):
            a, b = p.a, p.b
            ta, tb = np.tanh(a * x), np.tanh(b * x)
            den = b * ta * tb - a
            out = (b * b * ta * (1.0 - tb * tb) - a * a * ta + a * b * tb) / den
        else:
            u = p.beta * x
            # sinh(2u) + 2 alpha cosh^2(u), grouped to avoid inf - inf
            with np.errstate(over="ignore"):
                comb = ((1.0 + p.alpha) * np.exp(2.0 * u)
                        - (1.0 - p.alpha) * np.exp(-2.0 * u)) / 2.0 + p.alpha
                out = p.delta_e / (4.0 * p.beta) * comb - p.beta * np.tanh(u)
        if not np.all(np.isfinite(out)):
            raise NonFinite("chi evaluation left the representable range")
        return out if out.ndim else float(out)

    def potential(self, x):
        """Double-well potential V(x) solving -psi'' + V psi = E psi."""
        x = np.asarray(x, dtype=float)
        p = self.params
        if isinstance(p, SymmetricWellParams):
            a, b = p.a, p.b
            ta, tb = np.tanh(a * x), np.tanh(b * x)
            num = a * a * (1.0 - ta * ta) + b * b * ta * ta * (1.0 - tb * tb)
            out = 2.0 * (b * b - a * a) * num / (a - b * ta * tb) ** 2
        else:
            de, be, al = p.delta_e, p.beta, p.alpha
            with np.errstate(over="ignore"):
                c2 = np.cosh(be * x) ** 2
                s2 = np.sinh(2.0 * be * x)
                q = de * de / (4.0 * be * be)
                out = (be * be - de * al * s2
                       + c2 * (q * al * s2 - q - 2.0 * de)
                       + q * (al * al + 1.0) * c2 * c2
                       + 1.5 * de + p.e0)
        return out if out.ndim else float(out)

    def states(self, x):
        """(psi0(x), psi1(x)) from one shared closed-form evaluation."""
        r0, r1 = _raw_states(self.params, x)
        out0, out1 = self.norm0 * r0, self.norm1 * r1
        return (out0, out1) if out0.ndim else (float(out0), float(out1))

    def psi0(self, x):
        """Unit-norm, nodeless ground state (even for the symmetric family)."""
        return self.states(x)[0]

    def psi1(self, x):
        """Unit-norm first excited state with exactly one node."""
        return self.states(x)[1]


# ---------------------------------------------------------------------------
# time-dependent two-level superposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperpositionState:
    """Normalized superposition sin(theta) psi0 + cos(theta) psi1 evolving
    under the stationary phases exp(-i E_n t / hbar).

    theta must lie in [0, pi/2].  The wavefunction is exactly zero
    outside [-L, L], consistent with the model's tail threshold.
    """

    model: WellModel
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2.0:
            raise InvalidParameters(
                f"theta must lie in [0, pi/2], got {self.theta}")

    @property
    def e0(self) -> float:
        return self.model.e0

    @property
    def e1(self) -> float:
        return self.model.e1

    @property
    def support_halfwidth(self) -> float:
        return self.model.L

    def beat_period(self) -> float:
        """Full left-right-left oscillation time, 2 pi hbar / (E1 - E0)."""
        de = self.model.delta_e
        if de <= 0.0:
            raise DegenerateSplitting(f"delta_e must be > 0, got {de}")
        return 2.0 * math.pi * HBAR / de

    def coefficients(self, t: float = 0.0) -> tuple[complex, complex]:
        """Amplitudes (c0, c1) of psi0 and psi1 at time t."""
        return (math.sin(self.theta) * np.exp(-1j * self.e0 * t / HBAR),
                math.cos(self.theta) * np.exp(-1j * self.e1 * t / HBAR))

    def basis(self, x):
        """(psi0(x), psi1(x)) on the support |x| <= L and zero outside it.

        The closed forms run only at the points inside the support.
        """
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= self.model.L
        f0, f1 = np.zeros(x.shape), np.zeros(x.shape)
        f0[inside], f1[inside] = self.model.states(x[inside])
        return f0, f1

    def wavefunction(self, x, t: float = 0.0):
        """Complex amplitude Psi(x, t); zero outside the support."""
        c0, c1 = self.coefficients(t)
        f0, f1 = self.basis(x)
        out = c0 * f0 + c1 * f1
        return out if out.ndim else complex(out)

    def density(self, x, t: float = 0.0):
        """Position probability density |Psi(x, t)|^2."""
        amp = self.wavefunction(x, t)
        out = np.abs(np.asarray(amp)) ** 2
        return out if out.ndim else float(out)
