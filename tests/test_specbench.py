"""Finite-difference eigensolver against the exact closed-form spectrum."""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from doublewell import (
    ConvergenceFailure,
    DiscretizedHamiltonian,
    InvalidGrid,
    InvalidParameters,
    SpectralBenchReport,
    SymmetricWellParams,
    WellModel,
    benchmark,
    build_hamiltonian,
    lowest_eigenpairs,
)
from doublewell.specbench import _LATTICE_DOUBLES, MAX_LATTICE_POINTS


def test_grid_validation(sym_shallow):
    with pytest.raises(InvalidGrid):
        build_hamiltonian(sym_shallow, 8, 20.0)
    with pytest.raises(InvalidGrid, match=f"<= {MAX_LATTICE_POINTS} lattice"):
        build_hamiltonian(sym_shallow, MAX_LATTICE_POINTS + 1, 20.0)
    with pytest.raises(InvalidGrid):
        build_hamiltonian(sym_shallow, 3001, 0.0)


def test_assembly_rule(sym_shallow):
    h = build_hamiltonian(sym_shallow, 3001, 20.0)
    assert h.dx == 40.0 / 3000.0
    assert h.x.size == 3001
    assert h.diagonal.size == 2999 and h.off_diagonal.size == 2998
    # x = 0 sits mid-lattice for odd n; V(0) = -0.2 for this well
    mid = 1499  # interior index of x = 0
    assert h.diagonal[mid] == pytest.approx(-0.2 + 2.0 / h.dx ** 2, rel=1e-12)
    assert np.all(h.off_diagonal == -1.0 / h.dx ** 2)


def test_free_particle_in_a_box():
    # V = 0 on [-L, L] with Dirichlet ends: lowest level (pi/(2L))^2
    L, n = 5.0, 2001
    h = build_hamiltonian(lambda x: np.zeros_like(x), n, L)
    pairs = lowest_eigenpairs(h, k=2)
    exact = (math.pi / (2 * L)) ** 2
    dx = 2 * L / (n - 1)
    assert abs(pairs[0][0] - exact) < exact * (math.pi * dx / (2 * L)) ** 2
    assert abs(pairs[1][0] - 4 * exact) < 4 * exact * (math.pi * dx / L) ** 2


def test_k_range_enforced(sym_shallow):
    h = build_hamiltonian(sym_shallow, 201, 20.0)
    with pytest.raises(InvalidParameters):
        lowest_eigenpairs(h, k=5)
    with pytest.raises(InvalidParameters):
        lowest_eigenpairs(h, k=0)


def test_energies_recovered(sym_shallow):
    h = build_hamiltonian(sym_shallow, 3001, 20.0)
    pairs = lowest_eigenpairs(h, k=2)
    assert abs(pairs[0][0] - (-1.0)) < 1e-3
    assert abs(pairs[1][0] - (-0.9)) < 1e-3
    assert pairs[0][0] < pairs[1][0]


def test_second_order_convergence(sym_shallow):
    errors = []
    for n in (3001, 6001):  # n -> 2n - 1 halves dx exactly
        pairs = lowest_eigenpairs(build_hamiltonian(sym_shallow, n, 20.0), k=2)
        errors.append((abs(pairs[0][0] + 1.0), abs(pairs[1][0] + 0.9)))
    for e_coarse, e_fine in zip(errors[0], errors[1]):
        ratio = e_coarse / e_fine
        assert 3.0 < ratio < 5.0
        assert 1.8 < math.log2(ratio) < 2.2


def test_near_degenerate_splitting_resolved(sym_neardegen):
    h = build_hamiltonian(sym_neardegen, 3001, sym_neardegen.L)
    pairs = lowest_eigenpairs(h, k=2)
    split = pairs[1][0] - pairs[0][0]
    assert abs(split - 0.001) / 0.001 < 0.10


def test_numerical_node_counts(sym_shallow):
    h = build_hamiltonian(sym_shallow, 2001, 20.0)
    pairs = lowest_eigenpairs(h, k=2)
    for expected_nodes, (_, vec) in zip((0, 1), pairs):
        body = vec[np.abs(vec) > 1e-6 * np.max(np.abs(vec))]
        changes = np.sum(np.sign(body[:-1]) * np.sign(body[1:]) < 0)
        assert changes == expected_nodes


def test_eigenvector_normalization_and_sign(sym_shallow):
    h = build_hamiltonian(sym_shallow, 2001, 20.0)
    for energy, vec in lowest_eigenpairs(h, k=2):
        assert np.sum(vec ** 2) * h.dx == pytest.approx(1.0, rel=1e-12)
        assert vec[0] == 0.0 and vec[-1] == 0.0
    e0, v0 = lowest_eigenpairs(h, k=1)[0]
    assert np.max(v0) > 0  # ground state positive like psi0


@pytest.mark.parametrize("fixture,tol", [
    ("sym_shallow", 1e-3),
    ("asym_unit", 1e-3),
])
def test_benchmark_reports(fixture, tol, request):
    model = request.getfixturevalue(fixture)
    report = benchmark(model, 3001)
    assert report.abs_err_e0 < tol
    assert report.abs_err_e1 < tol
    assert report.sup_err_psi0 < 1e-3
    assert report.sup_err_psi1 < 1e-3
    assert report.n == 3001
    assert report.dx == pytest.approx(2 * model.L / 3000, rel=1e-15)


@pytest.mark.parametrize("fixture", ["sym_shallow", "asym_unit"])
def test_benchmark_peak_fits_the_lattice_budget(fixture, request):
    # MAX_LATTICE_POINTS is the frame budget over this many doubles a point
    model = request.getfixturevalue(fixture)
    n = 2 ** 14
    tracemalloc.start()
    try:
        benchmark(model, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * _LATTICE_DOUBLES * n


def test_report_round_trip(sym_shallow):
    report = benchmark(sym_shallow, 751)
    again = SpectralBenchReport.from_mapping(report.as_mapping())
    assert again == report


def test_convergence_failure_wraps_solver_errors(sym_shallow):
    h = build_hamiltonian(sym_shallow, 201, 20.0)
    h.diagonal[3] = np.nan
    with pytest.raises((ConvergenceFailure, ValueError)):
        lowest_eigenpairs(h, k=2)


# ---------------------------------------------------------------------------
# refinement from guessed states
# ---------------------------------------------------------------------------

def _gershgorin_sup(h):
    # max |Gershgorin bound|: stebz bisects to eps times this
    radius = np.zeros_like(h.diagonal)
    radius[:-1] += np.abs(h.off_diagonal)
    radius[1:] += np.abs(h.off_diagonal)
    return max(abs(np.min(h.diagonal - radius)), abs(np.max(h.diagonal + radius)))


def _same_pairs(a, b):
    return all(ea == eb and np.array_equal(va, vb) for (ea, va), (eb, vb) in zip(a, b))


@pytest.mark.parametrize("fixture", ["sym_shallow", "sym_neardegen", "asym_unit",
                                     "asym_neardegen"])
@pytest.mark.parametrize("n", [751, 3001])
def test_refined_eigenvalues_agree_with_bisection(fixture, n, request, caplog):
    model = request.getfixturevalue(fixture)
    h = build_hamiltonian(model, n, model.L)
    with caplog.at_level(logging.WARNING, logger="doublewell"):
        refined = lowest_eigenpairs(h, k=2, guesses=model.states(h.x))
    assert caplog.records == []  # certified, no fallback
    bisected = lowest_eigenpairs(h, k=2)
    tol = np.finfo(float).eps * _gershgorin_sup(h)
    for (e_ref, v_ref), (e_bis, v_bis) in zip(refined, bisected):
        assert abs(e_ref - e_bis) <= tol
        # same conventions: full lattice, zero ends, dx-normalized, same sign
        assert v_ref[0] == 0.0 and v_ref[-1] == 0.0
        assert np.sum(v_ref ** 2) * h.dx == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(v_ref - v_bis)) < 1e-6


def test_refined_free_particle_in_a_box_is_exact():
    # the discrete Dirichlet Laplacian's spectrum is known in closed form:
    # (4/dx^2) sin^2(j pi / (2(n-1))), with eigenvectors the continuum modes
    L = 5.0
    for n in (201, 751, 2001, 3001):
        h = build_hamiltonian(lambda x: np.zeros_like(x), n, L)
        guesses = (np.cos(np.pi * h.x / (2 * L)), np.sin(np.pi * h.x / L))
        pairs = lowest_eigenpairs(h, k=2, guesses=guesses)
        for j, (energy, _) in zip((1, 2), pairs):
            exact = 4.0 / h.dx ** 2 * math.sin(j * math.pi / (2 * (n - 1))) ** 2
            assert abs(energy - exact) <= 1e-12 * exact


@pytest.mark.parametrize("case", ["swapped", "coarse-shallow"])
def test_failed_certificate_bisects_and_warns(case, sym_shallow, caplog):
    if case == "swapped":
        model, n = sym_shallow, 751
    else:
        # 64 points across L = 240: the lattice holds many levels below
        # the refined excited state
        model, n = WellModel.build(SymmetricWellParams(e0=-1.0, e1=-0.01)), 64
    h = build_hamiltonian(model, n, model.L)
    psi0, psi1 = model.states(h.x)
    guesses = (psi1, psi0) if case == "swapped" else (psi0, psi1)
    with caplog.at_level(logging.WARNING, logger="doublewell"):
        pairs = lowest_eigenpairs(h, k=2, guesses=guesses)
    assert _same_pairs(pairs, lowest_eigenpairs(h, k=2))
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert f"n={n}" in record.getMessage()
    assert "certificate" in record.getMessage()


def test_enclosures_closer_than_rounding_fail_the_certificate(caplog):
    # exact eigenvectors of a diagonal T whose two lowest eigenvalues lie
    # closer than the 64 eps ||T|| rounding allowance: the Sturm count is
    # right, but the enclosures overlap, so neither value is certified
    x = np.linspace(-1.0, 1.0, 6)
    h = DiscretizedHamiltonian(x=x, diagonal=np.array([0.0, 1e-15, 5.0, 6.0]),
                               off_diagonal=np.zeros(3), dx=0.4)
    guesses = (np.eye(6)[1], np.eye(6)[2])
    with caplog.at_level(logging.WARNING, logger="doublewell"):
        pairs = lowest_eigenpairs(h, k=2, guesses=guesses)
    assert _same_pairs(pairs, lowest_eigenpairs(h, k=2))
    [record] = caplog.records
    assert "intervals 0 and 1 overlap" in record.getMessage()


def test_non_finite_hamiltonian_with_guesses_raises(sym_shallow):
    h = build_hamiltonian(sym_shallow, 201, 20.0)
    guesses = sym_shallow.states(h.x)
    h.diagonal[3] = np.nan
    with pytest.raises(ConvergenceFailure):
        lowest_eigenpairs(h, k=2, guesses=guesses)


def test_guesses_must_match_k_and_lattice(sym_shallow):
    h = build_hamiltonian(sym_shallow, 201, 20.0)
    psi0, psi1 = sym_shallow.states(h.x)
    with pytest.raises(InvalidParameters):
        lowest_eigenpairs(h, k=2, guesses=(psi0,))
    with pytest.raises(InvalidParameters):
        lowest_eigenpairs(h, k=2, guesses=(psi0, psi1[:-1]))
