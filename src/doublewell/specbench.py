"""Finite-difference eigensolver benchmarked against the closed forms.

The exactly known ground and first excited states make every
:class:`~doublewell.wellcore.WellModel` a self-checking test problem for
numerical Schrodinger solvers: discretize -psi'' + V psi = E psi on
[-L, L] with a second-order central stencil and Dirichlet ends, solve
the symmetric tridiagonal eigenproblem, and compare against the exact
energies and eigenfunctions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

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
# lattice, the potential, both diagonals, the solver's work arrays and the
# two eigenvectors (tracemalloc, n = 2**14 to 2**18 on both families: 13.0).
_LATTICE_DOUBLES = 16

# Largest lattice the eigensolver accepts: one that fits
# :data:`~doublewell.wigner.FRAME_BUDGET_BYTES` at its peak.
MAX_LATTICE_POINTS = FRAME_BUDGET_BYTES // (8 * _LATTICE_DOUBLES)


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


def lowest_eigenpairs(h: DiscretizedHamiltonian, k: int = 2):
    """k smallest eigenpairs via Sturm-sequence bisection plus inverse
    iteration (LAPACK stebz/stein).

    Eigenvectors come back on the full lattice (zero at both ends),
    normalized with the dx weight, and sign-fixed so the rightmost
    significant lobe is positive -- matching the closed-form conventions
    (nodeless psi0 > 0; psi1 positive right of its single node).
    """
    if not 1 <= k <= 4:
        raise InvalidParameters(f"k must be in 1..4, got {k}")
    try:
        energies, vectors = eigh_tridiagonal(
            h.diagonal, h.off_diagonal,
            select="i", select_range=(0, k - 1), lapack_driver="stebz")
    except LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc

    pairs = []
    for i in range(k):
        full = np.zeros(h.n)
        full[1:-1] = vectors[:, i]
        full /= np.sqrt(np.sum(full**2) * h.dx)
        significant = np.where(np.abs(full) >= 0.5 * np.abs(full).max())[0]
        if full[significant[-1]] < 0:
            full = -full
        pairs.append((float(energies[i]), full))
    return pairs


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
    Eigenfunction sup errors are taken after sign alignment by inner
    product with the exact state.
    """
    h = build_hamiltonian(model, n, model.L)
    pairs = lowest_eigenpairs(h, k=2)
    exact = (model.e0, model.e1)
    sup_errors = []
    for (energy, vec), reference in zip(pairs, model.states(h.x)):
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
