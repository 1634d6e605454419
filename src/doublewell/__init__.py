"""Double-well tunneling states and Wigner phase-space distributions.

Partially solvable symmetric and asymmetric double wells with
closed-form ground and first excited states, exact two-level time
evolution, FFT- and quadrature-based Wigner transforms with marginals,
overlap and negativity metrics, and a finite-difference eigensolver
benchmark validated against the exact spectrum.

Units: hbar = 1, m = 1/2 (so hbar^2/2m = 1).
"""

from .errors import (
    ConvergenceFailure,
    DegenerateSplitting,
    DoubleWellError,
    GridMismatch,
    GridTooSmall,
    InvalidGrid,
    InvalidParameters,
    NoDecay,
    NoFringes,
    NonFinite,
    ScenarioParseError,
    ScenarioValidationError,
)
from .wellcore import (
    HBAR,
    AsymmetricWellParams,
    SuperpositionState,
    SymmetricWellParams,
    WellModel,
    domain_halfwidth,
)
from .wigner import (
    NegativityReport,
    PhaseSpaceGrid,
    WignerField,
    crop_momentum,
    fringe_spacing,
    fringe_spacings,
    interference_midpoint,
    marginal_momentum,
    marginal_position,
    negativity,
    overlap_integral,
    total_mass,
    wigner_direct,
    wigner_fft,
    wigner_frames,
    wigner_negativity,
)
from .specbench import (
    DiscretizedHamiltonian,
    SpectralBenchReport,
    benchmark,
    build_hamiltonian,
    lowest_eigenpairs,
)
from .scenario import Scenario, TimeSpec, parse_scenario, parse_scenario_text
from .cli import run_scenario

__version__ = "0.1.0"

__all__ = [
    "HBAR",
    "__version__",
    # wellcore
    "SymmetricWellParams",
    "AsymmetricWellParams",
    "WellModel",
    "SuperpositionState",
    "domain_halfwidth",
    # wigner
    "PhaseSpaceGrid",
    "WignerField",
    "NegativityReport",
    "wigner_direct",
    "wigner_fft",
    "wigner_frames",
    "wigner_negativity",
    "total_mass",
    "marginal_position",
    "marginal_momentum",
    "overlap_integral",
    "negativity",
    "fringe_spacing",
    "fringe_spacings",
    "interference_midpoint",
    "crop_momentum",
    # specbench
    "DiscretizedHamiltonian",
    "SpectralBenchReport",
    "build_hamiltonian",
    "lowest_eigenpairs",
    "benchmark",
    # scenario / cli
    "Scenario",
    "TimeSpec",
    "parse_scenario",
    "parse_scenario_text",
    "run_scenario",
    # errors
    "DoubleWellError",
    "InvalidParameters",
    "DegenerateSplitting",
    "NoDecay",
    "NonFinite",
    "GridTooSmall",
    "GridMismatch",
    "NoFringes",
    "InvalidGrid",
    "ConvergenceFailure",
    "ScenarioParseError",
    "ScenarioValidationError",
]
