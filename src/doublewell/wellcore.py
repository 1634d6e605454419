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
producing NaNs.  An asymmetric well whose raw log peak squares out of the
normal double range has one closed-form constant taken off its log
amplitude (:func:`_asym_log_shift`), so its raw forms peak near 1.
"""

from __future__ import annotations

import math
import sys
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


# Largest relative change rounding may make to an asymmetric splitting
# delta_e through e1 - e0, with e1 = e0 + delta_e.
SPLITTING_REL = 1e-9


@dataclass(frozen=True)
class AsymmetricWellParams:
    """Parameters of the asymmetric family phi = alpha + tanh(beta x).

    beta and delta_e must be positive, and beta**2 a finite nonzero double;
    e1 is derived as e0 + delta_e, which must keep delta_e: e1 - e0 may
    differ from it by at most :data:`SPLITTING_REL` relative.
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
        # next to a much larger |e0| the sum e0 + delta_e rounds the
        # splitting away (e0 = 1e16, delta_e = 1 gives e1 - e0 = 0)
        split = self.e1 - self.e0
        if not abs(split - self.delta_e) <= SPLITTING_REL * self.delta_e:
            raise InvalidParameters(
                f"delta_e {self.delta_e!r} is lost to rounding next to e0 "
                f"{self.e0!r}: e1 - e0 is {split!r}, off by more than "
                f"{SPLITTING_REL:g} relative")

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
    # at |alpha| = 1 an overflowed exponential meets a zero factor: 0 * inf
    # is NaN, which the domain search refuses (NoDecay)
    with np.errstate(over="ignore", invalid="ignore"):
        g = ((1.0 + p.alpha) * np.exp(2.0 * u)
             + (1.0 - p.alpha) * np.exp(-2.0 * u)) / 4.0 + 0.5 + p.alpha * u
    c = p.delta_e / (4.0 * p.beta ** 2)
    # x - 0.0 is x, so an unshifted well keeps its bits
    return -c * g - _asym_log_shift(p.alpha, c)


def _asym_log_shift(alpha: float, c: float) -> float:
    # the larger of two lower bounds on the raw log peak, the maximum of
    # log|psi0| = log cosh u - c g(u).  The first is its value at
    # u* = -atanh(alpha), where g is least (g(u*) = 1 - alpha atanh(alpha));
    # as (log cosh)'' <= 1 and g'' >= 2 sqrt(1 - alpha^2), it is at most
    # alpha^2 / (4 (c sqrt(1 - alpha^2) - 1/2)) below the peak.  The second
    # is tight for tiny c, where the peak lies far out on the side where g
    # grows like (1 - |alpha|) e^{2|u|} / 4: there log cosh u >= |u| - ln 2
    # and g <= (1 - |alpha|) e^{2|u|} / 4 + 1 (it bounds the peak wherever
    # c (1 - |alpha|) <= 2 and lies below the first elsewhere).  The larger
    # is taken off only where the peak's square would leave the normal
    # range (whose square root is e^+-354); every other well gets 0.0.
    if not (abs(alpha) < 1.0 and c > 0.0):
        return 0.0
    s = max(-0.5 * math.log1p(-alpha * alpha) - c * (1.0 - alpha * math.atanh(alpha)),
            -0.5 * (math.log(2.0 * c) + math.log1p(-abs(alpha)) + 1.0) - c)
    return s if 340.0 < abs(s) < math.inf else 0.0


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

def _describe(params: WellParams) -> str:
    if isinstance(params, SymmetricWellParams):
        return f"symmetric(e0={params.e0!r}, e1={params.e1!r})"
    return (f"asymmetric(alpha={params.alpha!r}, beta={params.beta!r}, "
            f"e0={params.e0!r}, delta_e={params.delta_e!r})")


def _sup_bounds(params: WellParams) -> tuple[float, float] | None:
    """Upper bounds (S0, S1) on every computed |psi0| and |psi1|, or None
    when the family cannot certify that every sample is finite.

    Symmetric: the denominator is at least a - b > 0, so |psi0| <= e^{-a|x|}
    and |psi1| <= e^{-b|x|}, both <= 1.  Asymmetric, with |alpha| < 1 and
    c = delta_e / (4 beta^2) a normal positive double: log cosh u - c g(u)
    <= m|u| - k e^{2|u|} - c/2 with m = 1 + c|alpha| and
    k = c (1 - |alpha|) / 4, whose maximum over |u| is B; the forms as
    computed carry the log shift s of :func:`_asym_log_shift`, so
    |psi0| <= e^{B - s} and |psi1| <= (1 + |alpha|) e^{B - s}, all finite
    while B - s + ln 2 < 700.  Each bound is padded for rounding: 1e-9
    relative on S and 1e-6 on the exponent, scaled by the exponent's
    largest terms.
    """
    if isinstance(params, SymmetricWellParams):
        return (1.0 + 1e-9,) * 2 if params.a > params.b else None
    alpha = abs(params.alpha)
    c = params.delta_e / (4.0 * params.beta ** 2)
    k = c * (1.0 - alpha) / 4.0
    if not (alpha < 1.0 and sys.float_info.min <= c < math.inf and k > 0.0):
        return None
    m = 1.0 + c * alpha
    if m < 2.0 * k:
        B = -k - 0.5 * c
    else:
        B = 0.5 * m * (math.log(m) - math.log(2.0 * k) - 1.0) - 0.5 * c
    # the shift is even in alpha
    B += 1e-6 * (1.0 + abs(B) + m + c) - _asym_log_shift(alpha, c)
    if not B + math.log(2.0) < 700.0:
        return None
    S0 = math.exp(B) * (1.0 + 1e-9)
    return S0, (1.0 + alpha) * S0


def _tail_subgrid(L: float):
    """Every 32nd sample of ``np.linspace(-L, L, 4001)``, ends included.

    Repeats linspace's own arithmetic, so each of the 126 samples has the
    bits of the grid sample it stands for.
    """
    sub = np.arange(0, 4001, 32) * ((L - (-L)) / 4000) + (-L)
    sub[-1] = L
    return sub


def _tails_ok(params: WellParams, L: float, tail_rel: float, sup) -> bool:
    """The tail condition of :func:`domain_halfwidth` at ``L``, with
    ``sup`` the bounds of :func:`_sup_bounds`."""
    tops, ends = [], []
    for psi in _raw_states(params, _tail_subgrid(L)):
        vals = np.abs(psi)
        tops.append(vals.max())
        ends.append(max(vals[0], vals[-1]))
    # NaN and inf carry through max; any such sample is a grid sample
    if not all(math.isfinite(top) for top in tops):
        return False
    if sup is not None:
        if all(0.0 < top and end <= tail_rel * top
               for top, end in zip(tops, ends)):
            return True
        if any(end > tail_rel * S for end, S in zip(ends, sup)):
            return False
    for psi, end in zip(_raw_states(params, np.linspace(-L, L, 4001)),
                        ends):
        peak = np.abs(psi).max()
        if not (np.isfinite(peak) and peak > 0.0) or end > tail_rel * peak:
            return False
    return True


def domain_halfwidth(params: WellParams, tail_rel: float = 1e-10) -> float:
    """Halfwidth L such that both |psi0| and |psi1| at +-L have fallen
    below ``tail_rel`` times their respective peak amplitude.

    The search doubles L starting from 4 until the tail condition holds,
    then bisects the bracket down to 1% relative precision.  Raises
    :class:`NoDecay` once L exceeds 1e4, which signals parameters whose
    closed forms do not decay (e.g. |alpha| >= 1).

    The tail condition at L is a test on the 4001-point grid
    ``np.linspace(-L, L, 4001)``: every sample finite, and both end
    samples within ``tail_rel`` of the grid's peak.  Each L is decided
    once.  Most are decided from every 32nd grid sample (126 samples with
    the grid's bits, ends included) and the bounds of :func:`_sup_bounds`:
    a non-finite sample fails; with every sample certified finite, ends
    within ``tail_rel`` of the sub-grid's peak pass, since that peak is at
    most the grid's; ends above ``tail_rel`` times the bound on the peak
    fail.  Only an L neither decides evaluates the full grid, so the
    search visits the same L values and returns the same L.
    """
    if not 0.0 < tail_rel < 1.0:
        raise InvalidParameters(f"tail_rel must be in (0, 1), got {tail_rel}")
    sup = _sup_bounds(params)
    hi = 4.0
    first_passed = ok = _tails_ok(params, hi, tail_rel, sup)
    while not ok:
        hi *= 2.0
        if hi > 1e4:
            raise NoDecay(
                f"no halfwidth below 1e4 satisfies tail_rel={tail_rel} for "
                f"{_describe(params)}; parameters likely non-normalizable")
        ok = _tails_ok(params, hi, tail_rel, sup)
    lo = hi / 2.0
    # after any doubling, lo is the last probe that failed
    while first_passed and lo > 0.25 and _tails_ok(params, lo, tail_rel, sup):
        hi = lo
        lo /= 2.0
    while (hi - lo) > 0.01 * hi:
        mid = 0.5 * (lo + hi)
        if _tails_ok(params, mid, tail_rel, sup):
            hi = mid
        else:
            lo = mid
    return hi


# The trapezoid's first level: 2**6 intervals, evaluated in one call.  No
# integral stops before the level above it, since two coarse grids can agree
# on a peak that neither resolves; ordinary wells stop at levels 7-9.
FLOOR_LEVEL = 6

# A level's midpoints are evaluated this many at a time, so a deep level's
# temporaries stay a few MiB.  Each block is summed by np.sum, and the block
# sums are added in a pairwise tree: with a power of two of at least 128
# (numpy's pairwise block) dividing the level's power-of-two count, that is
# np.sum's own tree over the whole level, bit for bit.
MIDPOINT_BLOCK = 1 << 16


def _midpoint_sums(f, L: float, h: float, n: int) -> list[float]:
    # the sums of each integrand over the n midpoints -L + (2k + 1) h,
    # evaluated a block at a time
    sums = []
    for lo in range(0, n, MIDPOINT_BLOCK):
        k = np.arange(lo, min(n, lo + MIDPOINT_BLOCK))
        sums.append([float(np.sum(ys)) for ys in f(-L + h * (2.0 * k + 1.0))])
    while len(sums) > 1:
        sums = [[a + b for a, b in zip(left, right)]
                for left, right in zip(sums[0::2], sums[1::2])]
    return sums[0]


def _trapezoid(f, L: float, names, rel_tol: float = 1e-12,
               max_level: int = 24) -> list[float]:
    """Doubling composite trapezoid of several integrands on [-L, L].

    The squared states are analytic in a strip about the real axis and
    decay to the tail threshold at +-L, so the trapezoid converges
    geometrically (Trefethen & Weideman, SIAM Review 56, 2014) and takes no
    extrapolation.  ``f(xs)`` returns one array per integrand, so every call
    serves all of them: the :data:`FLOOR_LEVEL` grid in the first call,
    then each level's midpoints, :data:`MIDPOINT_BLOCK` a call.  Each
    integral stops at the first level whose increment is within ``rel_tol``
    of its value, and later levels leave it untouched.  A value of exactly
    0 never stops: the grid has not yet met the peak.  A value that is not
    finite stops at once.  Raises :class:`ConvergenceFailure` naming
    ``names[i]`` and ``L`` if integral i is still moving at ``max_level``.
    """
    n = 2 ** FLOOR_LEVEL
    h = 2.0 * L / n
    values = [h * (0.5 * float(ys[0] + ys[-1]) + float(np.sum(ys[1:-1])))
              for ys in f(np.linspace(-L, L, n + 1))]
    done = [not math.isfinite(value) for value in values]
    increments = [math.inf] * len(values)
    level = FLOOR_LEVEL
    while not all(done):
        if level == max_level:
            i = done.index(False)
            raise ConvergenceFailure(
                f"{names[i]}: the trapezoid on [-L, L] (L = {L!r}) did not "
                f"converge by level {max_level}: last increment "
                f"{increments[i]:.3e} exceeds {rel_tol:.0e} of the value "
                f"{values[i]:.6e}")
        level += 1
        h *= 0.5
        for i, total in enumerate(_midpoint_sums(f, L, h, n)):
            if done[i]:
                continue
            value = 0.5 * values[i] + h * total
            increments[i] = abs(value - values[i])
            values[i] = value
            done[i] = not math.isfinite(value) or (
                value != 0.0 and increments[i] <= rel_tol * abs(value))
        n *= 2
    return values


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WellModel:
    """One double-well instance with unit-norm closed-form eigenstates.

    Construct via :meth:`WellModel.build`, which fixes the evaluation
    domain [-L, L] from the tail threshold and the normalization
    constants by the doubling trapezoid of :func:`_trapezoid` over each
    raw state's square (relative tolerance 1e-12; :class:`ConvergenceFailure`
    if either norm is still moving at level 24, :class:`NonFinite` if a
    squared norm is 0 or not finite; both name the state, the well and
    L).  The raw asymmetric forms carry the log shift of
    :func:`_asym_log_shift`, which keeps their peaks, and so their
    squares, in range; ``norm0``/``norm1`` scale the raw forms as
    computed.  Sign conventions: psi0(0) > 0 and psi1 has
    positive slope at its node.

    All methods are pure and accept scalars or numpy arrays.
    """

    params: WellParams
    halfwidth: float
    norm0: float
    norm1: float

    @classmethod
    def build(cls, params: WellParams, tail_rel: float = 1e-10) -> "WellModel":
        L = domain_halfwidth(params, tail_rel)
        with np.errstate(over="ignore"):
            integrals = _trapezoid(
                lambda x: [r ** 2 for r in _raw_states(params, x)], L,
                [f"psi{n} of {_describe(params)}" for n in range(2)])
        for n, integral in enumerate(integrals):
            if not 0.0 < integral < math.inf:
                raise NonFinite(
                    f"psi{n} of {_describe(params)} cannot be normalised: "
                    f"its squared integral on [-L, L] (L = {L!r}) is "
                    f"{integral!r}")
        norm0, norm1 = (1.0 / math.sqrt(integral) for integral in integrals)
        return cls(params=params, halfwidth=L, norm0=norm0, norm1=norm1)

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
        return _describe(self.params)

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
        # sinh(a x)/cosh(b x) grows like exp((a - b)|x|), past the double
        # range on the wide domain of a well with E1 near 0
        if not np.all(np.isfinite(out)):
            raise NonFinite(f"phi of {self.describe()} left the representable "
                            f"range on the sampled x (L = {self.L!r})")
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
