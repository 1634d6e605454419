"""Discretized Wigner transform, marginals, overlaps, and negativity metrics.

The transform implemented here is

    W(x, p; t) = 1/(pi hbar) * Integral  Psi*(x+y, t) Psi(x-y, t) e^{2ipy/hbar} dy

evaluated on a uniform phase-space lattice.  Two independent
discretizations are provided: a direct trapezoid quadrature over y
(:func:`wigner_direct`, reference path, arbitrary momentum lattice) and a
per-column FFT (:func:`wigner_frames` and its single-time form
:func:`wigner_fft`, production path, canonical momentum lattice
p_k = k * pi*hbar/(n_y*dy)).

The FFT engine has three parts:

* **Basis.**  A :class:`~doublewell.wellcore.SuperpositionState` is
  Psi = c0(t) psi0 + c1(t) psi1 over the real, time-independent
  eigenstates, so W = |c0|^2 W00 + |c1|^2 W11 + 2 Re(conj(c0) c1 W01).
  The three cross-Wigner transforms are computed once per call and each
  time is a real linear combination of them: no closed-form evaluation
  and no FFT per time.  The closed forms run only at lattice points
  inside the support |x| <= L, and the mass check of each frame combines
  the four basis masses the same way.  Any other object exposing
  ``wavefunction(x, t) -> complex ndarray`` is transformed per time as
  the real pair (Re Psi, Im Psi) with coefficients (1, i), through the
  same code.
* **One lattice.**  The y lattice carries n_y + 1 points with
  y[n_y - j] == -y[j] exactly in IEEE arithmetic, so f(x - y_j) is the
  reversed view of f(x + y) and each basis function is evaluated once.
* **Column blocks.**  x columns are transformed in blocks of a fixed
  byte size (128 KiB of y lattice).  A block's four basis parts are
  combined into every requested frame while they are in cache, so the
  full basis is never held: memory is the K preallocated frames plus one
  block per worker, and K frames must fit :data:`FRAME_BUDGET_BYTES`.
  ``threads`` maps a thread pool (at most ``os.cpu_count()`` workers)
  over the blocks.

Mirror samples y, -y contribute complex-conjugate terms, so only the
real part is accumulated; a diagnostics mode reports the imaginary part
that is dropped.  No sum depends on the block partition, so results are
bit-identical for any ``threads`` setting, and a frame never depends on
which other times are requested.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GridMismatch,
    GridTooSmall,
    InvalidGrid,
    InvalidParameters,
    NoFringes,
    NonFinite,
)
from .wellcore import HBAR, SuperpositionState

__all__ = [
    "PhaseSpaceGrid",
    "WignerField",
    "NegativityReport",
    "wigner_direct",
    "wigner_fft",
    "wigner_frames",
    "total_mass",
    "marginal_position",
    "marginal_momentum",
    "overlap_integral",
    "negativity",
    "fringe_spacing",
    "interference_midpoint",
    "crop_momentum",
    "FRAME_BUDGET_BYTES",
    "check_frame_budget",
]


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform (x, p) lattice with inclusive endpoints."""

    x_min: float
    x_max: float
    n_x: int
    p_min: float
    p_max: float
    n_p: int

    def __post_init__(self):
        if self.n_x < 2 or self.n_p < 2:
            raise InvalidGrid(f"need n_x, n_p >= 2, got {self.n_x}, {self.n_p}")
        if not self.x_max > self.x_min:
            raise InvalidGrid(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        if not self.p_max > self.p_min:
            raise InvalidGrid(f"p_max must exceed p_min, got [{self.p_min}, {self.p_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)


@dataclass(eq=False)
class WignerField:
    """Real Wigner samples on a :class:`PhaseSpaceGrid`.

    ``values`` has shape (n_x, n_p) and is marked read-only after
    construction.  ``imag_sup`` holds the sup-norm of the suppressed
    imaginary part when the field was computed with diagnostics on.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    time: float
    method: str
    state: str = ""
    imag_sup: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_x, self.grid.n_p):
            raise InvalidGrid(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_x}, {self.grid.n_p})")
        # min and max carry any nan or inf without a lattice-sized mask
        if not (np.isfinite(self.values.min()) and np.isfinite(self.values.max())):
            raise NonFinite("Wigner field contains non-finite samples")
        self.values.setflags(write=False)


@dataclass(frozen=True)
class NegativityReport:
    """Integrated negative part of a field and its most negative sample."""

    negative_volume: float
    min_value: float
    min_location: tuple[float, float]


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def _describe(state) -> str:
    describe = getattr(state, "describe", None)
    return describe() if callable(describe) else type(state).__name__


def _check_support(state, y_halfwidth: float):
    support = getattr(state, "support_halfwidth", None)
    if support is not None and y_halfwidth < support:
        raise InvalidParameters(
            f"y_halfwidth {y_halfwidth} is smaller than the state support {support}")


def _mass_check(mass: float):
    if 1.0 - mass > 1e-3:
        raise GridTooSmall(
            f"total mass {mass:.6f} shows a deficit > 1e-3; "
            "the x grid does not contain the state's support")


def wigner_direct(state, grid: PhaseSpaceGrid, t: float,
                  y_halfwidth: float, n_y: int = 1024,
                  check_mass: bool = True,
                  diagnostics: bool = False) -> WignerField:
    """Trapezoid-rule Wigner transform on an explicit phase-space grid.

    Reference path: O(n_x * n_p * n_y) work.  ``n_y`` is the number of
    trapezoid subintervals on [-y_halfwidth, +y_halfwidth] and must be
    even (>= 64) so the lattice contains y = 0.
    """
    if n_y < 64 or n_y % 2:
        raise InvalidParameters(f"n_y must be even and >= 64, got {n_y}")
    _check_support(state, y_halfwidth)

    xs = grid.x_axis()
    ps = grid.p_axis()
    y = np.linspace(-y_halfwidth, y_halfwidth, n_y + 1)
    dy = y[1] - y[0]
    values = np.empty((grid.n_x, grid.n_p))
    imag_sup = 0.0
    block = 64
    for i, x0 in enumerate(xs):
        corr = np.conj(state.wavefunction(x0 + y, t)) * state.wavefunction(x0 - y, t)
        for j0 in range(0, grid.n_p, block):
            pblk = ps[j0:j0 + block]
            phase = np.exp((2j / HBAR) * pblk[:, None] * y[None, :])
            integrand = phase * corr[None, :]
            values[i, j0:j0 + block] = np.trapezoid(
                integrand.real, dx=dy, axis=1) / (np.pi * HBAR)
            if diagnostics:
                resid = np.trapezoid(integrand.imag, dx=dy, axis=1) / (np.pi * HBAR)
                imag_sup = max(imag_sup, float(np.max(np.abs(resid))))

    out = WignerField(grid=grid, values=values, time=t,
                      method="direct-quadrature", state=_describe(state),
                      imag_sup=imag_sup if diagnostics else None)
    if check_mass:
        _mass_check(total_mass(out))
    return out


# Bytes of one real (rows, n_y) block of the y lattice.  Fixed, not tied to
# ``threads``, so the block partition depends only on the grid.  A block
# holds about ten lattice-sized temporaries (basis samples, products,
# spectra, the four basis parts), which at this size stay in L2; at 512 KiB
# they did not, and the allocator returned and re-faulted them every block.
_BLOCK_BYTES = 1 << 17

# Largest frame set :func:`wigner_frames` allocates: len(times) * n_x * n_y
# doubles.  Everything else it holds is one column block per worker.
FRAME_BUDGET_BYTES = 1 << 30


def check_frame_budget(n_frames: int, n_x: int, n_y: int):
    """Raise :class:`InvalidGrid` if ``n_frames`` (n_x, n_y) frames of doubles
    exceed :data:`FRAME_BUDGET_BYTES`."""
    need = 8 * n_frames * n_x * n_y
    if need > FRAME_BUDGET_BYTES:
        raise InvalidGrid(
            f"{n_frames} frame(s) of {n_x} x {n_y} need {need} bytes, above "
            f"the {FRAME_BUDGET_BYTES}-byte budget")


def _worker_count(threads: int, n_blocks: int) -> int:
    """Pool size for ``n_blocks`` column blocks: never above the CPU count."""
    return min(threads, n_blocks, os.cpu_count() or 1)


def _block_rows(n_rows: int, row_len: int) -> list[slice]:
    step = max(1, _BLOCK_BYTES // (8 * row_len))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _two_level_basis(state: SuperpositionState):
    # (psi0, psi1) on |x| <= L and zero outside, as state.wavefunction has
    # them; the closed forms run only on the support
    model = state.model

    def basis(x):
        inside = np.abs(x) <= model.L
        f0, f1 = np.zeros(x.shape), np.zeros(x.shape)
        f0[inside], f1[inside] = model.states(x[inside])
        return f0, f1
    return basis


def _split_basis(state, t: float):
    # a complex wavefunction is the real pair (Re, Im) with coefficients (1, i)
    def basis(x):
        psi = np.asarray(state.wavefunction(x, t))
        return psi.real, psi.imag
    return basis


def _fft_columns(basis, xs: np.ndarray, y: np.ndarray, phase: np.ndarray,
                 weights: list[np.ndarray], frames: list[np.ndarray],
                 wp: np.ndarray | None, per_x: np.ndarray, edges: np.ndarray,
                 rows: slice):
    """Transform a real basis pair (f0, f1) on one block of x columns and
    combine it into every frame.

    The block's W00, W11, Re W01 and Im W01 go into a block-local
    ``parts``; ``frames[k][rows]`` receives ``weights[k] @ parts`` and,
    when ``wp`` is given, ``per_x[:, rows]`` the four parts integrated
    over p with the trapezoid weights ``wp``.  f0, f1 at the unpaired
    samples y[0], y[n_y] go into ``edges[:, rows]``.
    ``y`` has n_y + 1 points with y[n_y - j] == -y[j] exactly, so
    f(x - y_j) is the reversed view f(x + y[n_y - j]) of one lattice.
    On the momentum lattice p_r = r * dp the spectrum
    S(p_r) = sum_j f_a(x+y_j) f_b(x-y_j) e^{2i p_r y_j/hbar} of real
    samples comes from an rfft R: S(p_r) = conj(R_r) (-1)^r and
    S(p_-r) = R_r (-1)^r; ``phase`` carries (-1)^r dy/(pi hbar).
    """
    n = y.size - 1
    half = n // 2
    f0, f1 = basis(xs[rows, None] + y[None, :])
    parts = np.empty((4, f0.shape[0], n))
    for k, (u, v) in enumerate(((f0, f0), (f1, f1), (f0, f1))):
        spec = np.fft.rfft(u[:, :n] * v[:, n:0:-1], axis=1) * phase
        parts[k, :, :half] = spec.real[:, half:0:-1]
        parts[k, :, half:] = spec.real[:, :half]
    # the loop ends on the cross pair, whose imaginary part is odd in p
    parts[3, :, :half] = spec.imag[:, half:0:-1]
    np.negative(spec.imag[:, :half], out=parts[3, :, half:])
    for w, frame in zip(weights, frames):
        np.einsum("k,kij->ij", w, parts, out=frame[rows])
    if wp is not None:
        np.einsum("kij,j->ki", parts, wp, out=per_x[:, rows])
    edges[0, rows] = f0[:, ::n]
    edges[1, rows] = f1[:, ::n]


def _transform(basis, xs: np.ndarray, y: np.ndarray, phase: np.ndarray,
               weights: list[np.ndarray], frames: list[np.ndarray],
               wp: np.ndarray | None,
               threads: int) -> tuple[np.ndarray, np.ndarray]:
    """Fill ``frames`` block by block; return the basis masses per x column
    (meaningful when ``wp`` is given) and the unpaired edge samples."""
    per_x = np.empty((4, xs.size))
    edges = np.empty((2, xs.size, 2))
    blocks = _block_rows(xs.size, y.size - 1)

    def run(rows):
        _fft_columns(basis, xs, y, phase, weights, frames, wp, per_x, edges, rows)
    workers = _worker_count(threads, len(blocks))
    if workers == 1:
        for rows in blocks:
            run(rows)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, blocks))
    return per_x, edges


def _weights(c0: complex, c1: complex) -> np.ndarray:
    # W = |c0|^2 W00 + |c1|^2 W11 + 2 Re(conj(c0) c1 W01)
    z = 2.0 * np.conj(c0) * c1
    return np.array([abs(c0) ** 2, abs(c1) ** 2, z.real, -z.imag])


def _edge_residue(edges: np.ndarray, c0: complex, c1: complex,
                  scale: float) -> float:
    # Mirror pairs y, -y contribute conjugate terms, so the imaginary part of
    # the discrete sum is exactly that of the unpaired y = -n_y/2*dy sample.
    psi = c0 * edges[0] + c1 * edges[1]
    return scale * float(np.max(np.abs((np.conj(psi[:, 0]) * psi[:, 1]).imag)))


def wigner_frames(state, x_grid: np.ndarray, times,
                  n_y: int = 1024, y_halfwidth: float | None = None,
                  check_mass: bool = True, threads: int = 1,
                  diagnostics: bool = False) -> list[WignerField]:
    """FFT Wigner transform of ``state`` at each of ``times``; production path.

    For each x column the correlation C(y_j) = Psi*(x+y_j) Psi(x-y_j) is
    formed on the uniform lattice y_j = (j - n_y/2) * dy with
    dy = 2*y_halfwidth/n_y, and its discrete Fourier transform yields the
    canonical momentum lattice p_k = k * dp, dp = pi*hbar/(n_y*dy),
    k = -n_y/2 .. n_y/2 - 1.  The scaling dy/(pi*hbar) makes each column
    match the direct quadrature at shared lattice points.

    A :class:`SuperpositionState` is transformed once per call: with
    Psi = c0(t) psi0 + c1(t) psi1 over real psi_n, each frame is
    |c0|^2 W00 + |c1|^2 W11 + 2 Re(conj(c0) c1 W01).  Any other state is
    transformed per time as the real pair (Re Psi, Im Psi).  A frame never
    depends on which other times are requested, so
    ``wigner_frames(s, xs, ts)[k]`` equals ``wigner_fft(s, xs, ts[k])``
    bit for bit.

    ``x_grid`` must be a uniform ascending 1-D axis.  ``y_halfwidth``
    defaults to the state's support halfwidth.  ``n_y`` must be a power
    of two (>= 4).  The frames must fit :data:`FRAME_BUDGET_BYTES`, else
    :class:`InvalidGrid` is raised before anything is allocated.  Columns
    are processed in fixed-size blocks, each combined into every frame
    while it is in cache, so memory is the frames plus one block per
    worker.  ``threads`` (>= 1) spreads the blocks over a thread pool; the
    output is identical for any value.  ``diagnostics`` records in
    ``imag_sup`` the sup-norm of the imaginary part the real transform
    drops.  ``check_mass`` raises :class:`GridTooSmall` for a frame whose
    trapezoid mass falls short of 1 by more than 1e-3; that mass is the
    frame's combination of the four basis masses.
    """
    if n_y < 4 or n_y & (n_y - 1):
        raise InvalidParameters(f"n_y must be a power of two >= 4, got {n_y}")
    if threads < 1:
        raise InvalidParameters(f"threads must be >= 1, got {threads}")
    xs = np.asarray(x_grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise InvalidGrid("x_grid must be a 1-D axis with at least 2 points")
    steps = np.diff(xs)
    if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.max():
        raise InvalidGrid("x_grid must be uniform and ascending")
    times = list(times)
    check_frame_budget(len(times), xs.size, n_y)
    if y_halfwidth is None:
        y_halfwidth = getattr(state, "support_halfwidth", None)
        if y_halfwidth is None:
            raise InvalidParameters(
                "y_halfwidth is required for states without support_halfwidth")
    _check_support(state, y_halfwidth)
    if not times:
        return []

    dy = 2.0 * y_halfwidth / n_y
    # n_y + 1 points: (j - n_y/2) and (n_y/2 - j) are exact negatives
    y = (np.arange(n_y + 1) - n_y // 2) * dy
    scale = dy / (np.pi * HBAR)
    phase = np.where(np.arange(n_y // 2 + 1) % 2, -scale, scale)
    dp = np.pi * HBAR / (n_y * dy)
    grid = PhaseSpaceGrid(x_min=float(xs[0]), x_max=float(xs[-1]), n_x=xs.size,
                          p_min=-(n_y // 2) * dp, p_max=(n_y // 2 - 1) * dp,
                          n_p=n_y)
    wp = _trapezoid_weights(n_y, dp) if check_mass else None

    # (basis, times, coefficients, frames): a SuperpositionState is one job
    # for every time, any other state one job per time
    frames = [np.empty((xs.size, n_y)) for _ in times]
    if isinstance(state, SuperpositionState):
        jobs = [(_two_level_basis(state), times,
                 [state.coefficients(t) for t in times], frames)]
    else:
        jobs = [(_split_basis(state, t), [t], [(1.0, 1.0j)], [frame])
                for t, frame in zip(times, frames)]

    label = _describe(state)
    fields = []
    for basis, job_times, coeffs, job_frames in jobs:
        weights = [_weights(c0, c1) for c0, c1 in coeffs]
        per_x, edges = _transform(basis, xs, y, phase, weights, job_frames,
                                  wp, threads)
        if check_mass:
            # mass is linear in W, so each frame's mass combines the basis masses
            masses = np.einsum("ki,i->k", per_x,
                               _trapezoid_weights(grid.n_x, grid.dx))
        for t, (c0, c1), w, values in zip(job_times, coeffs, weights, job_frames):
            out = WignerField(grid=grid, values=values, time=t,
                              method="fourier", state=label,
                              imag_sup=(_edge_residue(edges, c0, c1, scale)
                                        if diagnostics else None))
            if check_mass:
                _mass_check(float(w @ masses))
            fields.append(out)
    return fields


def wigner_fft(state, x_grid: np.ndarray, t: float,
               n_y: int = 1024, y_halfwidth: float | None = None,
               check_mass: bool = True, threads: int = 1,
               diagnostics: bool = False) -> WignerField:
    """Single-time :func:`wigner_frames`; same lattice, arguments and bits."""
    return wigner_frames(state, x_grid, [t], n_y=n_y, y_halfwidth=y_halfwidth,
                         check_mass=check_mass, threads=threads,
                         diagnostics=diagnostics)[0]


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] = w[-1] = 0.5 * step
    return w


def _phase_space_integrals(stack: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Trapezoid integral over the grid of each (n_x, n_p) slice of ``stack``.

    Trapezoid weight vectors contracted by ``einsum``, not a BLAS product,
    so the sums stay on the calling thread and do not depend on the BLAS
    build.
    """
    per_x = np.einsum("kij,j->ki", stack, _trapezoid_weights(grid.n_p, grid.dp))
    return np.einsum("ki,i->k", per_x, _trapezoid_weights(grid.n_x, grid.dx))


def total_mass(field: WignerField) -> float:
    """Trapezoid integral of W over the whole grid; 1 for a unit state."""
    return float(_phase_space_integrals(field.values[None], field.grid)[0])


def marginal_position(field: WignerField) -> np.ndarray:
    """Position density P(x) = Integral W dp, aligned with grid.x_axis().

    Requires the field mass to be within 1e-3 of unity (i.e. an
    uncropped field of a normalized state).
    """
    mass = total_mass(field)
    if abs(mass - 1.0) > 1e-3:
        raise GridTooSmall(
            f"marginal_position needs a unit-mass field, got mass {mass:.6f}")
    return np.trapezoid(field.values, dx=field.grid.dp, axis=1)


def marginal_momentum(field: WignerField) -> np.ndarray:
    """Momentum density P~(p) = Integral W dx, aligned with grid.p_axis()."""
    mass = total_mass(field)
    if abs(mass - 1.0) > 1e-3:
        raise GridTooSmall(
            f"marginal_momentum needs a unit-mass field, got mass {mass:.6f}")
    return np.trapezoid(field.values, dx=field.grid.dx, axis=0)


def overlap_integral(field_a: WignerField, field_b: WignerField) -> float:
    """Raw double integral of W_a * W_b over phase space (trapezoid).

    Proportional to the squared wavefunction overlap; the proportionality
    constant (1/(2*pi*hbar) for unit states on this transform convention)
    is measured empirically by the test suite rather than asserted.
    """
    if field_a.grid != field_b.grid:
        raise GridMismatch("overlap requires identical phase-space grids")
    prod = field_a.values * field_b.values
    return float(_phase_space_integrals(prod[None], field_a.grid)[0])


def negativity(field: WignerField) -> NegativityReport:
    """Integrated negative volume plus the most negative sample."""
    # np.trapezoid's order, not _phase_space_integrals: the volume is
    # emitted, and its bits are fixed by this summation order.  Row blocks
    # through two reused buffers keep the temporaries cache-sized; the
    # minimum is found as the first maximum of -W in the writable buffer,
    # since argmin copies a read-only array whole.
    grid = field.grid
    blocks = _block_rows(grid.n_x, grid.n_p)
    neg = np.empty((blocks[0].stop, grid.n_p))
    pair_sum = np.empty((blocks[0].stop, grid.n_p - 1))
    per_x = np.empty(grid.n_x)
    flat, top = 0, -np.inf
    for rows in blocks:
        y, s = neg[:rows.stop - rows.start], pair_sum[:rows.stop - rows.start]
        np.negative(field.values[rows], out=y)
        k = int(y.argmax())
        if y.flat[k] > top:
            flat, top = rows.start * grid.n_p + k, y.flat[k]
        np.maximum(y, 0.0, out=y)
        # add.reduce(dp * (y[:, 1:] + y[:, :-1]) / 2.0, axis=1)
        np.add(y[:, 1:], y[:, :-1], out=s)
        np.multiply(grid.dp, s, out=s)
        np.divide(s, 2.0, out=s)
        np.add.reduce(s, axis=1, out=per_x[rows])
    volume = float(np.trapezoid(per_x, dx=grid.dx))
    i, j = divmod(flat, grid.n_p)
    return NegativityReport(
        negative_volume=volume,
        min_value=float(field.values[i, j]),
        min_location=(float(field.grid.x_axis()[i]), float(field.grid.p_axis()[j])),
    )


def fringe_spacing(field: WignerField, x0: float, p_band: float = 4.0,
                   floor_rel: float = 1e-9) -> float:
    """Mean distance between consecutive zero crossings of W(x0, p).

    The profile is the lattice column nearest x0, restricted to
    |p| <= p_band.  Sign changes whose neighbouring samples both sit
    below ``floor_rel`` times the profile's peak magnitude are ignored;
    they are floating-point noise in the far tail, not fringes.  Raises
    :class:`NoFringes` when fewer than three sign changes remain.
    """
    xs = field.grid.x_axis()
    column = field.values[int(np.argmin(np.abs(xs - x0)))]
    ps = field.grid.p_axis()
    band = np.abs(ps) <= p_band
    prof, pb = column[band], ps[band]
    if prof.size < 4:
        raise NoFringes(f"band |p| <= {p_band} holds fewer than 4 samples")
    floor = floor_rel * np.max(np.abs(prof))
    crossings = []
    for i in range(prof.size - 1):
        w0, w1 = prof[i], prof[i + 1]
        if w0 == 0.0 or w0 * w1 >= 0.0:
            continue
        if max(abs(w0), abs(w1)) <= floor:
            continue
        crossings.append(pb[i] - w0 * (pb[i + 1] - pb[i]) / (w1 - w0))
    if len(crossings) < 3:
        raise NoFringes(
            f"{len(crossings)} sign change(s) in |p| <= {p_band}; "
            "need at least 3")
    return float(np.mean(np.diff(crossings)))


def interference_midpoint(state, n: int = 4001) -> float:
    """Midpoint between the peaks of |psi0| and |psi1|.

    Natural fringe-cut abscissa for asymmetric wells, where the two
    eigenstates concentrate in different wells.  (Symmetric wells use
    x0 = 0, the barrier centre, by parity.)
    """
    model = state.model
    xs = np.linspace(-model.L, model.L, n)
    psi0, psi1 = model.states(xs)
    x_pk0 = xs[int(np.argmax(np.abs(psi0)))]
    x_pk1 = xs[int(np.argmax(np.abs(psi1)))]
    return 0.5 * (x_pk0 + x_pk1)


def crop_momentum(field: WignerField, p_max: float) -> WignerField:
    """Sub-field restricted to |p| <= p_max (same x axis and spacing).

    Intended for emission: the FFT lattice spans far beyond the
    spectral support.  Mass invariants apply to the full field only.
    """
    ps = field.grid.p_axis()
    keep = np.abs(ps) <= p_max
    if keep.sum() < 2:
        raise InvalidGrid(f"p_max {p_max} keeps fewer than 2 momentum rows")
    idx = np.where(keep)[0]
    sub = PhaseSpaceGrid(
        x_min=field.grid.x_min, x_max=field.grid.x_max, n_x=field.grid.n_x,
        p_min=float(ps[idx[0]]), p_max=float(ps[idx[-1]]), n_p=int(idx.size))
    return WignerField(grid=sub, values=field.values[:, keep].copy(),
                       time=field.time, method=field.method, state=field.state,
                       imag_sup=field.imag_sup)
