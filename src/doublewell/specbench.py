"""Finite-difference eigensolver benchmarked against the closed forms.

The exactly known ground and first excited states make every
:class:`~doublewell.wellcore.WellModel` a self-checking test problem for
numerical Schrodinger solvers: discretize -psi'' + V psi = E psi on
[-L, L] with a second-order central stencil and Dirichlet ends, solve
the symmetric tridiagonal eigenproblem, and compare against the exact
energies and eigenfunctions.

The exact states also seed the solve.  Rayleigh-quotient iteration
converges cubically from a good start (Parlett, *The Symmetric
Eigenvalue Problem*, 4.6), so each state costs a couple of tridiagonal
solves.  The refined pairs are certified before they are returned:
residual bounds enclose each eigenvalue, the enclosures are disjoint
and ascending, and one Sturm count proves they are the lowest.  Without
guesses, or when the certificate fails (with a warning on the
``doublewell`` logger), the solver bisects by Sturm sequences (LAPACK
stebz) and inverse-iterates (stein).

scipy's LAPACK wrappers are imported at the first solve, not with this
module, so a process that never solves loads numpy only.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConvergenceFailure, InvalidGrid, InvalidParameters
from .wellcore import WellModel
from .wigner import FRAME_BUDGET_BYTES

__all__ = [
    "DiscretizedHamiltonian",
    "SpectralBenchReport",
    "build_hamiltonian",
    "lowest_eigenpairs",
    "benchmark",
    "MIN_LATTICE_POINTS",
    "MAX_LATTICE_POINTS",
]

# Smallest lattice the eigensolver accepts.
MIN_LATTICE_POINTS = 16

# Doubles :func:`benchmark` holds per lattice point at its peak: the
# lattice, both diagonals, the two exact states, the two refined vectors
# and the Sturm count's work arrays (tracemalloc, n = 2**14 to 2**18 on
# both families: 15.5; 14.5 when the certificate fails and it bisects).
_LATTICE_DOUBLES = 16

# Largest lattice the eigensolver accepts: one that fits
# :data:`~doublewell.wigner.FRAME_BUDGET_BYTES` at its peak.
MAX_LATTICE_POINTS = FRAME_BUDGET_BYTES // (8 * _LATTICE_DOUBLES)

# Rounding allowance on a computed residual norm, in units of ||T||.
_RESIDUAL_SLACK = 64 * float(np.finfo(float).eps)

# Rayleigh-quotient steps per state at most; from the closed forms the
# catalog's wells reach the rounding floor in two.
_RQI_STEPS = 4

_log = logging.getLogger("doublewell")


@dataclass(eq=False)
class DiscretizedHamiltonian:
    """Symmetric tridiagonal operator for -d2/dx2 + V with Dirichlet ends.

    ``x`` is the full n-point lattice on [-L, L]; the matrix acts on the
    n-2 interior nodes (psi(+-L) = 0).  diagonal[i] = V(x_{i+1}) + 2/dx^2,
    off_diagonal[i] = -1/dx^2.
    """

    x: np.ndarray
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    dx: float

    @property
    def n(self) -> int:
        return self.x.size


def build_hamiltonian(model, n: int, L: float) -> DiscretizedHamiltonian:
    """Assemble the interior-node tridiagonal Hamiltonian.

    ``model`` is a :class:`WellModel` or any callable potential V(x).
    """
    if not MIN_LATTICE_POINTS <= n <= MAX_LATTICE_POINTS:
        raise InvalidGrid(f"need {MIN_LATTICE_POINTS} <= n <= {MAX_LATTICE_POINTS} "
                          f"lattice points, got {n}")
    if not L > 0:
        raise InvalidGrid(f"need L > 0, got {L}")
    potential = model.potential if isinstance(model, WellModel) else model
    x = np.linspace(-L, L, n)
    dx = 2.0 * L / (n - 1)
    v = np.asarray(potential(x[1:-1]), dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidGrid("potential is non-finite on the lattice")
    diagonal = v + 2.0 / dx**2
    off_diagonal = np.full(n - 3, -1.0 / dx**2)
    return DiscretizedHamiltonian(x=x, diagonal=diagonal,
                                  off_diagonal=off_diagonal, dx=dx)


@functools.cache
def _lapack():
    # (eigh_tridiagonal, LinAlgError, the double gtsv), imported at the
    # first solve: scipy.linalg takes longer to import than the rest of the
    # package, and only the eigensolver needs it
    from scipy.linalg import LinAlgError, eigh_tridiagonal, get_lapack_funcs
    gtsv, = get_lapack_funcs(("gtsv",), (np.zeros(1),))
    return eigh_tridiagonal, LinAlgError, gtsv


def lowest_eigenpairs(h: DiscretizedHamiltonian, k: int = 2, guesses=None):
    """k smallest eigenpairs, refined from ``guesses`` when they certify,
    else by Sturm-sequence bisection plus inverse iteration (LAPACK
    stebz/stein).

    ``guesses`` holds k approximate eigenvectors on the full lattice,
    lowest first (the closed-form states in :func:`benchmark`).  Each is
    refined by Rayleigh-quotient iteration, one tridiagonal solve (LAPACK
    gtsv) per step, and the result is certified before it is returned:
    the Rayleigh quotient rho_i lies within b_i = ||T v_i - rho_i v_i|| +
    64 eps ||T|| of an eigenvalue, the intervals [rho_i - b_i, rho_i + b_i]
    are disjoint and ascending, and one Sturm count finds exactly k
    eigenvalues up to rho_{k-1} + b_{k-1}.  So the k intervals hold the k
    lowest eigenvalues, one each.  A failed certificate logs a warning on
    the ``doublewell`` logger naming n and the check, then bisects.

    Eigenvectors come back on the full lattice (zero at both ends),
    normalized with the dx weight, and sign-fixed so the rightmost
    significant lobe is positive -- matching the closed-form conventions
    (nodeless psi0 > 0; psi1 positive right of its single node).
    """
    if not 1 <= k <= 4:
        raise InvalidParameters(f"k must be in 1..4, got {k}")
    if not (np.all(np.isfinite(h.diagonal)) and np.all(np.isfinite(h.off_diagonal))):
        raise ConvergenceFailure("tridiagonal Hamiltonian has non-finite entries")
    if guesses is not None:
        if len(guesses) != k or any(np.shape(g) != h.x.shape for g in guesses):
            raise InvalidParameters(
                f"need {k} guesses of {h.n} lattice points each")
        refined = _refine(h, guesses)
        if isinstance(refined, str):
            _log.warning("eigensolver at n=%d: refined states failed the "
                         "certificate (%s); bisecting", h.n, refined)
        else:
            return _lattice_pairs(h, *refined)
    eigh_tridiagonal, LinAlgError, _ = _lapack()
    try:
        energies, vectors = eigh_tridiagonal(
            h.diagonal, h.off_diagonal,
            select="i", select_range=(0, k - 1), lapack_driver="stebz",
            check_finite=False)
    except LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return _lattice_pairs(h, energies, vectors.T)


def _lattice_pairs(h: DiscretizedHamiltonian, energies, interiors):
    # full lattice, dx-normalized, rightmost significant lobe positive
    pairs = []
    for energy, interior in zip(energies, interiors):
        full = np.zeros(h.n)
        full[1:-1] = interior
        full /= np.sqrt(np.sum(full**2) * h.dx)
        significant = np.where(np.abs(full) >= 0.5 * np.abs(full).max())[0]
        if full[significant[-1]] < 0:
            full = -full
        pairs.append((float(energy), full))
    return pairs


def _rayleigh(d: np.ndarray, e: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    # Rayleigh quotient of the unit vector v under the tridiagonal T with
    # diagonal d and off-diagonal e, and the norm of its residual T v - rho v
    tv = d * v
    tv[:-1] += e * v[1:]
    tv[1:] += e * v[:-1]
    rho = float(v @ tv)
    tv -= rho * v
    return rho, math.sqrt(tv @ tv)


def _gershgorin(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    # a lower bound on T's spectrum, and an upper bound on ||T||
    radius = np.zeros_like(d)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    return float(np.min(d - radius)), float(np.max(np.abs(d) + radius))


def _refine(h: DiscretizedHamiltonian, guesses):
    """Certified Rayleigh-quotient iteration from each guess: (energies,
    unit interior vectors), or the name of the check that failed."""
    eigh_tridiagonal, LinAlgError, gtsv = _lapack()
    d, e = h.diagonal, h.off_diagonal
    gershgorin_low, norm_bound = _gershgorin(d, e)
    slack = _RESIDUAL_SLACK * norm_bound
    energies, vectors, bounds = [], [], []
    for guess in guesses:
        v = np.asarray(guess, dtype=float)[1:-1]
        v = v / math.sqrt(v @ v)
        rho, residual = _rayleigh(d, e, v)
        for _ in range(_RQI_STEPS):
            if not residual > slack:
                break
            # the shifted diagonal is a temporary, so gtsv may factor in place
            *_, w, info = gtsv(e, d - rho, e, v, overwrite_d=1)
            if info:  # T - rho I is singular to working precision
                break
            v = w / math.sqrt(w @ w)
            rho, residual = _rayleigh(d, e, v)
        energies.append(rho)
        vectors.append(v)
        bounds.append(residual + slack)
    if not all(np.isfinite(energies + bounds)):
        return "a Rayleigh quotient or residual is non-finite"
    for i in range(1, len(energies)):
        if not energies[i - 1] + bounds[i - 1] < energies[i] - bounds[i]:
            return f"intervals {i - 1} and {i} overlap or are out of order"
    top = energies[-1] + bounds[-1]
    try:
        # with an infinite tolerance stebz counts by Sturm sequences but
        # does not bisect, so the size is exact
        count = eigh_tridiagonal(
            d, e, eigvals_only=True, select="v",
            select_range=(gershgorin_low - norm_bound, top),
            lapack_driver="stebz", tol=1e300, check_finite=False).size
    except LinAlgError:
        return "the Sturm count failed"
    if count != len(energies):
        return f"the Sturm count up to {top:.6g} is {count}, not {len(energies)}"
    return energies, vectors


# a field's annotation, a string under postponed evaluation -> its parser
_PARSERS = {"str": str, "int": int, "float": float}


@dataclass(frozen=True)
class SpectralBenchReport:
    """Numerical-vs-exact comparison for the two lowest states."""

    model_config: str
    n: int
    halfwidth: float
    dx: float
    exact_e0: float
    exact_e1: float
    numerical_e0: float
    numerical_e1: float
    abs_err_e0: float
    abs_err_e1: float
    sup_err_psi0: float
    sup_err_psi1: float

    def as_mapping(self) -> dict[str, str]:
        """Lossless key=value view in field order: text as it is, numbers
        in their shortest round-trip repr."""
        return {k: v if isinstance(v, str) else repr(v)
                for k, v in asdict(self).items()}

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "SpectralBenchReport":
        return cls(**{f.name: _PARSERS[f.type](mapping[f.name]) for f in fields(cls)})


def benchmark(model: WellModel, n: int) -> SpectralBenchReport:
    """Discretize, solve, and compare against the exact spectrum.

    The lattice spans the model's own tail-derived domain [-L, L], where
    the Dirichlet truncation error sits below the tail threshold.
    The exact states on the lattice seed the eigensolver's refinement,
    and eigenfunction sup errors are taken against them after sign
    alignment by inner product.
    """
    h = build_hamiltonian(model, n, model.L)
    states = model.states(h.x)
    pairs = lowest_eigenpairs(h, k=2, guesses=states)
    exact = (model.e0, model.e1)
    sup_errors = []
    for (energy, vec), reference in zip(pairs, states):
        if np.dot(vec, reference) < 0:
            vec = -vec
        sup_errors.append(float(np.max(np.abs(vec - reference))))
    return SpectralBenchReport(
        model_config=model.describe(),
        n=n,
        halfwidth=model.L,
        dx=h.dx,
        exact_e0=exact[0],
        exact_e1=exact[1],
        numerical_e0=pairs[0][0],
        numerical_e1=pairs[1][0],
        abs_err_e0=abs(pairs[0][0] - exact[0]),
        abs_err_e1=abs(pairs[1][0] - exact[1]),
        sup_err_psi0=sup_errors[0],
        sup_err_psi1=sup_errors[1],
    )
