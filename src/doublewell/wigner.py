"""Discretized Wigner transform, marginals, overlaps, and negativity metrics.

The transform implemented here is

    W(x, p; t) = 1/(pi hbar) * Integral  Psi*(x+y, t) Psi(x-y, t) e^{2ipy/hbar} dy

evaluated on a uniform phase-space lattice.  Two independent
discretizations are provided: a direct trapezoid quadrature over y
(:func:`wigner_direct`, reference path, arbitrary momentum lattice) and a
per-column FFT (:func:`wigner_frames`, its single-time form
:func:`wigner_fft`, :func:`wigner_reduce`, which reduces each frame
inside the transform, :func:`wigner_negativity`, its negativity-only
form, and :func:`fringe_spacings`, which transforms one column;
production path).  The FFT engines compute W on the canonical momentum
lattice p_k = k * dp, dp = pi*hbar/(n_y*dy); their grids label it with
``np.linspace(-(n_y/2) * dp, (n_y/2 - 1) * dp, n_y)``, which differs from
k * dp by at most a few ulp of its end value.  A |p| <= bound band is one
run of those columns (``_band_columns``, the module's one such rule),
labelled by the band sub-grid's own ``linspace`` between its end samples;
the Wigner grid and the momentum marginal of a frame are written on that
one label.

The FFT engine has four parts:

* **Basis.**  A state is Psi = c0(t) f0 + c1(t) f1 over a real,
  time-independent pair (f0, f1), so W = |c0|^2 W00 + |c1|^2 W11 +
  2 Re(conj(c0) c1 W01).  The engines take any state exposing
  ``basis(x) -> (f0, f1)``, ``coefficients(t) -> (c0, c1)`` and
  ``support_halfwidth``, as the two-level superposition of
  :mod:`~doublewell.wellcore` does.  The state promises time-independent
  magnitudes |c0(t)|^2 and |c1(t)|^2: the engines take them once per call
  from ``coefficients(0)``, where each phase is exactly 1, and refuse with
  :class:`InvalidParameters` a time whose magnitudes differ from them by
  more than rounding.  The three cross-Wigner transforms are computed
  once per call, and their stationary part A = |c0|^2 W00 + |c1|^2 W11
  once per block; each time adds only 2 Re(conj(c0) c1 W01) to it: no
  basis evaluation and no FFT per time.  The y lattice spans [-L, L], L
  the support halfwidth, and a superposition evaluates its closed forms
  only at points inside the support.
* **Mass from position space.**  Summed over all n_y momenta, a column
  of the DFT is |Psi(x, t)|^2, so each frame's mass is checked before
  the transform as the x trapezoid of |c0|^2 f0^2 + |c1|^2 f1^2 +
  2 Re(conj(c0) c1) f0 f1 on the x grid, in O(n_x), without reading the
  lattice.  A caller that reads one column, such as
  :func:`fringe_spacings`, therefore transforms one column per frame.
* **One lattice.**  The y lattice carries n_y + 1 points with
  y[n_y - j] == -y[j] exactly in IEEE arithmetic, so f(x - y_j) is the
  reversed view of f(x + y) and each basis function is evaluated once.
* **Column blocks and reducers.**  x columns are transformed in blocks
  of a fixed byte size (128 KiB of y lattice), in block order on the
  calling thread, so the full basis is never held.  Each frame's rows of
  a block are combined from the block's A, Re W01 and Im W01 once, by one
  three-term sum into the call's block-sized scratch, and every reducer
  of the frame reads them there while they are in cache: any of the
  |p| <= p_max band (:class:`Band`; :func:`wigner_frames` keeps the band
  p_max = inf, the whole frame), the position and momentum marginals
  (:class:`PositionRows`, :class:`MomentumRows`) and the negativity
  (:class:`NegativityRows`, last, as it works in place and sums each row
  in one reduction) in one :func:`wigner_reduce` call, which holds no
  frame.  :func:`marginal_position`, :func:`marginal_momentum`
  and :func:`negativity` feed a held field's row blocks through the same
  reducers, so held and streamed frames give the same bits.  Memory is
  what the reducers keep plus one block and its scratch.  Kept frames
  must fit :data:`FRAME_BUDGET_BYTES`, and one block's temporaries
  :data:`BLOCK_BUDGET_BYTES`.

Mirror samples y, -y contribute complex-conjugate terms, so only the
real part is accumulated; every field reports the imaginary part that is
dropped as ``imag_sup``, taken from the two unpaired end samples.  No sum
depends on the block partition, and a frame never depends on which other
times are requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    GridTooSmall,
    InvalidGrid,
    InvalidParameters,
    NoFringes,
    NonFinite,
)
from .wellcore import HBAR

__all__ = [
    "PhaseSpaceGrid",
    "WignerField",
    "NegativityReport",
    "wigner_direct",
    "wigner_fft",
    "wigner_frames",
    "wigner_negativity",
    "wigner_reduce",
    "Band",
    "PositionRows",
    "MomentumRows",
    "NegativityRows",
    "total_mass",
    "marginal_position",
    "marginal_momentum",
    "overlap_integral",
    "negativity",
    "fringe_spacing",
    "fringe_spacings",
    "interference_midpoint",
    "crop_momentum",
    "BLOCK_BUDGET_BYTES",
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
    imaginary part; every full-lattice engine sets it, and a
    :class:`Band` field or a field built by hand leaves it ``None``.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    time: float
    method: str
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

def _mass_check(mass: float):
    # a nan mass compares false, so it is refused by name first
    if not np.isfinite(mass):
        raise NonFinite(f"total mass {mass} is not finite; the state has "
                        "non-finite samples on the x grid")
    if 1.0 - mass > 1e-3:
        raise GridTooSmall(
            f"total mass {mass:.6f} shows a deficit > 1e-3; "
            "the x grid does not contain the state's support")


def wigner_direct(state, grid: PhaseSpaceGrid, t: float,
                  y_halfwidth: float, n_y: int = 1024,
                  check_mass: bool = True) -> WignerField:
    """Trapezoid-rule Wigner transform on an explicit phase-space grid.

    Reference path: O(n_x * n_p * n_y) work.  ``n_y`` is the number of
    trapezoid subintervals on [-y_halfwidth, +y_halfwidth] and must be
    even (>= 64) so the lattice contains y = 0.  ``imag_sup`` is the
    sup-norm of the trapezoid of the imaginary integrand.
    """
    if n_y < 64 or n_y % 2:
        raise InvalidParameters(f"n_y must be even and >= 64, got {n_y}")
    support = getattr(state, "support_halfwidth", None)
    if support is not None and y_halfwidth < support:
        raise InvalidParameters(
            f"y_halfwidth {y_halfwidth} is smaller than the state support {support}")

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
            resid = np.trapezoid(integrand.imag, dx=dy, axis=1) / (np.pi * HBAR)
            imag_sup = max(imag_sup, float(np.max(np.abs(resid))))

    out = WignerField(grid=grid, values=values, time=t,
                      method="direct-quadrature", imag_sup=imag_sup)
    if check_mass:
        _mass_check(total_mass(out))
    return out


# Bytes of one real (rows, n_y) block of the y lattice.  Fixed, so the block
# partition depends only on the grid.  A block holds up to
# ``_BLOCK_TEMPORARIES`` lattice-sized temporaries (basis samples, products,
# spectra, the four basis parts), which at this size stay in L2; at 512 KiB
# they did not, and the allocator returned and re-faulted them every block.
_BLOCK_BYTES = 1 << 17

# Largest set of kept frames one call allocates: len(times) * n_x * n_y
# doubles when frames are held (:func:`wigner_frames`, :class:`Band`),
# len(times) * 2 * (n_x + n_y) when every frame is only reduced.
FRAME_BUDGET_BYTES = 1 << 30

# Lattice-sized doubles one column block holds at its peak, counting the y
# lattice, the phase, the closed-form temporaries and the call's two
# scratch rows, the combined frame and the marginals' pairs (tracemalloc,
# one-row blocks through x = 0 of an asymmetric well at n_y = 2**17: 14.7
# rows keeping frames, 14.6 reducing negativity, which takes no pairs, and
# 15.6 besides the momentum marginal's two kept rows reducing both
# marginals and negativity).
_BLOCK_TEMPORARIES = 16

# Largest scratch one column block may hold: rows of up to n_y = 2**24.  A
# block is never narrower than one x row, so for a huge n_y its temporaries,
# not the frames, set the memory of a call.
BLOCK_BUDGET_BYTES = _BLOCK_TEMPORARIES * 8 << 24


def _block_scratch(rows: int, n_y: int) -> int:
    # bytes of temporaries a block of ``rows`` x columns holds at its peak
    return _BLOCK_TEMPORARIES * 8 * rows * n_y


def check_frame_budget(n_frames: int, n_x: int, n_y: int, held: bool = True):
    """Raise :class:`InvalidGrid` if ``n_frames`` (n_x, n_y) frames exceed
    :data:`FRAME_BUDGET_BYTES`, or the temporaries of one column block
    exceed :data:`BLOCK_BUDGET_BYTES`.

    A ``held`` frame counts its n_x * n_y doubles; a frame that is only
    reduced counts 2 * (n_x + n_y), what its reductions keep at most: the
    per-x volumes and position marginal, and the momentum marginal with
    its carried row.
    """
    need = 8 * n_frames * (n_x * n_y if held else 2 * (n_x + n_y))
    if need > FRAME_BUDGET_BYTES:
        kind = "frame(s)" if held else "reduced frame(s)"
        raise InvalidGrid(
            f"{n_frames} {kind} of {n_x} x {n_y} need {need} bytes, above "
            f"the {FRAME_BUDGET_BYTES}-byte budget")
    rows = min(n_x, _block_step(n_y))
    scratch = _block_scratch(rows, n_y)
    if scratch > BLOCK_BUDGET_BYTES:
        raise InvalidGrid(
            f"a column block of {rows} x {n_y} needs about {scratch} bytes of "
            f"temporaries, above the {BLOCK_BUDGET_BYTES}-byte budget")


def _block_step(row_len: int) -> int:
    # rows per block: never fewer than one
    return max(1, _BLOCK_BYTES // (8 * row_len))


def _block_rows(n_rows: int, row_len: int) -> list[slice]:
    step = _block_step(row_len)
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


class _Scratch:
    """One call's block buffers, reused by every block and frame: ``rows``
    rows of the combined frame and, made on first use, a flat buffer of as
    many doubles for the marginals' pair sums."""

    def __init__(self, rows: int, n: int):
        self.combined = np.empty((rows, n))
        self.pair = None

    def values(self, rows: slice) -> np.ndarray:
        """The block's rows of W, combined or copied in by the caller."""
        return self.combined[:rows.stop - rows.start]

    def pairs(self, r: int, n: int) -> np.ndarray:
        """The first r * n doubles of the pair buffer as a C-contiguous
        (r, n) array, for the pair sums of an (r, n) block.  Its flat form
        holds the r * n - 1 sums of neighbours of the flat block; the last
        slot is never written."""
        if self.pair is None:
            self.pair = np.empty(self.combined.size)
        return self.pair[:r * n].reshape(r, n)


def _row_trapezoid(values: np.ndarray, dp: float, scratch: _Scratch,
                   out: np.ndarray):
    # np.trapezoid(values, dx=dp, axis=1) in its own rounding order,
    # dp * (a + b) / 2 summed per row, without allocating.  The block is a
    # C-contiguous (r, n), so one add of its flat neighbours gives each
    # row's n - 1 pair sums at i*n .. i*n + n - 2; the r - 1 sums across a
    # row boundary, at i*n + n - 1, are scaled but never read, and the
    # buffer's last slot, which no sum reaches, is left alone.  x * 0.5 is
    # x / 2 correctly rounded for every double, subnormals included, at a
    # quarter of the divide's cost; dp/2 in one multiply is not, where the
    # product is subnormal.
    r, n = values.shape
    pair = scratch.pairs(r, n)
    flat, sums = values.reshape(-1), pair.reshape(-1)[:-1]
    np.add(flat[1:], flat[:-1], out=sums)
    np.multiply(dp, sums, out=sums)
    np.multiply(sums, 0.5, out=sums)
    np.add.reduce(pair[:, :-1], axis=1, out=out)


# Frame reducers.  Each is built per frame as ``reducer(n_rows, grid, t)``
# and called once per column block, in block order, with the block's rows
# of W in the call's writable scratch; ``result()`` gives what it reduced
# the frame to.  ``holds_frame`` says whether the budget counts whole
# frames for it.


def _band_columns(ps: np.ndarray, bound: float) -> slice:
    # the one |p| <= bound rule of the package: the columns of the ascending
    # axis ps that it keeps, one run, possibly empty
    idx = np.flatnonzero(np.abs(ps) <= bound)
    if idx.size == 0:
        return slice(0, 0)
    return slice(int(idx[0]), int(idx[-1]) + 1)


def _band(grid: PhaseSpaceGrid, p_max: float) -> tuple[slice, PhaseSpaceGrid]:
    # the momentum columns with |p| <= p_max and the sub-grid they span
    ps = grid.p_axis()
    cols = _band_columns(ps, p_max)
    n_p = cols.stop - cols.start
    if n_p < 2:
        raise InvalidGrid(f"p_max {p_max} keeps fewer than 2 momentum rows")
    sub = PhaseSpaceGrid(x_min=grid.x_min, x_max=grid.x_max, n_x=grid.n_x,
                         p_min=float(ps[cols.start]),
                         p_max=float(ps[cols.stop - 1]), n_p=n_p)
    return cols, sub


@dataclass(frozen=True)
class Band:
    """Reducer of each frame to its |p| <= ``p_max`` band: the field
    :func:`crop_momentum` cuts from the whole frame, bit for bit, with
    ``imag_sup`` left ``None``.  The budget counts whole frames for it, as
    the parser must, since the band's width depends on the model's L."""

    p_max: float
    holds_frame = True

    def __call__(self, n_rows: int, grid: PhaseSpaceGrid, t: float):
        return _BandRows(n_rows, grid, t, self.p_max)


class _BandRows:
    def __init__(self, n_rows: int, grid: PhaseSpaceGrid, t: float,
                 p_max: float):
        self.cols, self.grid = _band(grid, p_max)
        self.time = t
        self.values = np.empty((n_rows, self.grid.n_p))

    def __call__(self, rows: slice, values: np.ndarray, scratch: _Scratch):
        self.values[rows] = values[:, self.cols]

    def result(self) -> WignerField:
        return WignerField(grid=self.grid, values=self.values, time=self.time,
                           method="fourier")


class PositionRows:
    """Reducer of each frame to :func:`marginal_position`, bit for bit:
    each block leaves its rows' p trapezoids in ``per_x``."""

    holds_frame = False

    def __init__(self, n_rows: int, grid: PhaseSpaceGrid, t: float):
        self.grid = grid
        self.per_x = np.empty(n_rows)

    def __call__(self, rows: slice, values: np.ndarray, scratch: _Scratch):
        _row_trapezoid(values, self.grid.dp, scratch, self.per_x[rows])

    def result(self) -> np.ndarray:
        return _unit_mass(self.per_x, self.grid.dx, "marginal_position")


class MomentumRows:
    """Reducer of each frame to :func:`marginal_momentum`, bit for bit.

    np.trapezoid over axis 0 adds dx * (W[i+1] + W[i]) / 2 to a zeroed
    sum one row i at a time, in row order; a per-block sum added to the
    total rounds otherwise.  So each block, in block order, folds the total
    into its first term and reduces its terms over axis 0, which adds them
    in turn, and the last row of a block is carried to pair with the first
    of the next.
    """

    holds_frame = False

    def __init__(self, n_rows: int, grid: PhaseSpaceGrid, t: float):
        self.grid = grid
        self.total = np.zeros(grid.n_p)
        self.carry = np.empty(grid.n_p)

    def __call__(self, rows: slice, values: np.ndarray, scratch: _Scratch):
        terms = scratch.pairs(*values.shape)
        np.add(values[1:], values[:-1], out=terms[1:])
        if rows.start:
            np.add(values[0], self.carry, out=terms[0])
        else:
            terms = terms[1:]
        if len(terms):
            np.multiply(self.grid.dx, terms, out=terms)
            np.multiply(terms, 0.5, out=terms)
            # an axis-0 reduce adds the rows in order, one at a time
            np.add(self.total, terms[0], out=terms[0])
            np.add.reduce(terms, axis=0, out=self.total)
        self.carry[:] = values[-1]

    def result(self) -> np.ndarray:
        return _unit_mass(self.total, self.grid.dp, "marginal_momentum")


class NegativityRows:
    """The one :func:`negativity` reducer, fed one block of rows at a time.

    It runs after any other reducer of the frame, since it clamps the
    block in place.  Each block leaves one sum per row in ``sums`` and
    updates the running first minimum of W, so the report does not depend
    on the block partition.

    A row's negative volume is its p trapezoid of max(-W, 0), taken by the
    trapezoid's sum identity: over m = min(W, 0) the trapezoid is
    -dp * (m_first / 2 + m_2 + ... + m_last / 2).  So each block's two end
    columns are halved in place and each row is added in one reduction,
    and :meth:`row_volumes` scales every row by dp at once.  The volume is
    emitted, and its bits are fixed by this order: clamp, halve the ends,
    one pairwise row sum, one multiply by dp, then the x trapezoid.  It
    agrees with np.trapezoid's sum of the row's terms dp * (a + b) / 2 to
    a few ulp of their total.
    """

    holds_frame = False

    def __init__(self, n_rows: int, grid: PhaseSpaceGrid, t: float):
        self.grid = grid
        self.sums = np.empty(n_rows)
        self.flat, self.top = 0, -np.inf

    def __call__(self, rows: slice, values: np.ndarray, scratch: _Scratch):
        """Adds each row of min(W, 0), its end samples halved, into
        ``sums``.  x * 0.5 is x / 2 correctly rounded for every double, as
        the trapezoid halves.  The block's first minimum, held as its
        negation ``top``, replaces the running one only if it is strictly
        lower, so the first of tied minima wins.

        A +inf in W without a NaN cannot arrive here: the clamp below
        would hide it, but an infinite basis sample makes its whole
        spectrum NaN in the FFT, argmin returns the first NaN, and
        :meth:`result` refuses it.  The engine's mass check refuses a
        non-finite sample on the x grid before any transform.
        """
        k = int(values.argmin())
        top = -float(values.flat[k])
        np.minimum(values, 0.0, out=values)
        ends = values[:, ::values.shape[1] - 1]
        np.multiply(ends, 0.5, out=ends)
        np.add.reduce(values, axis=1, out=self.sums[rows])
        if top > self.top:
            self.flat, self.top = rows.start * values.shape[1] + k, top

    def row_volumes(self) -> np.ndarray:
        """Each row's negative volume.  The trapezoid of min(W, 0) is that
        volume negated exactly, since rounding is symmetric in sign, and
        0.0 - s, unlike -s, leaves a row with nothing negative at +0.0."""
        return np.subtract(0.0, self.grid.dp * self.sums)

    def result(self) -> NegativityReport:
        grid, flat, top = self.grid, self.flat, self.top
        volume = float(np.trapezoid(self.row_volumes(), dx=grid.dx))
        if not (np.isfinite(volume) and np.isfinite(top)):
            raise NonFinite("Wigner field contains non-finite samples")
        i, j = divmod(flat, grid.n_p)
        return NegativityReport(
            negative_volume=volume,
            min_value=-top,
            min_location=(float(grid.x_axis()[i]), float(grid.p_axis()[j])),
        )


def _fft_columns(basis, xs: np.ndarray, y: np.ndarray, phase: np.ndarray,
                 stationary: tuple[float, float], weights: list[np.ndarray],
                 frames: list, rows: slice, scratch: _Scratch):
    """Transform a real basis pair (f0, f1) on one block of x columns and
    hand each frame's rows to that frame's reducers.

    The block's W00, W11, Re W01 and Im W01 go into a block-local
    ``parts``.  Its W00 and W11 are then overwritten, once per block, with
    the time-independent A = |c0|^2 W00 + |c1|^2 W11 of the
    ``stationary`` weights, and each frame ``k`` is the one three-term sum
    A + Re z Re W01 + Im z' Im W01 of ``weights[k]`` = (1, Re z, Im z'),
    formed into the call's scratch by one einsum (no BLAS, whose fused
    multiply-adds would move bits), where every reducer of ``frames[k]``
    reads it while it is in cache.  ``y`` has n_y + 1 points
    with y[n_y - j] == -y[j] exactly, so f(x - y_j) is the reversed view
    f(x + y[n_y - j]) of one lattice.
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
    np.multiply(parts[0], stationary[0], out=parts[0])
    np.multiply(parts[1], stationary[1], out=parts[1])
    np.add(parts[0], parts[1], out=parts[1])
    parts = parts[1:]
    values = scratch.values(rows)
    for w, reducers in zip(weights, frames):
        np.einsum("k,kij->ij", w, parts, out=values)
        for reduce in reducers:
            reduce(rows, values, scratch)


def _transform(basis, xs: np.ndarray, y: np.ndarray, phase: np.ndarray,
               stationary: tuple[float, float], weights: list[np.ndarray],
               frames: list):
    """Feed every frame's reducers block by block, in block order, through
    one :class:`_Scratch`."""
    blocks = _block_rows(xs.size, y.size - 1)
    scratch = _Scratch(blocks[0].stop, y.size - 1)
    for rows in blocks:
        _fft_columns(basis, xs, y, phase, stationary, weights, frames, rows,
                     scratch)


# Largest relative difference between a frame's |c_k(t)|^2 and the
# time-independent |c_k(0)|^2 that is taken as rounding: a few ulp.
_MAGNITUDE_RTOL = 16 * np.finfo(float).eps


def _stationary_weights(state, times, coeffs) -> tuple[float, float]:
    """(|c0|^2, |c1|^2) of every frame, taken at t = 0, where each phase is
    exactly 1.  A time whose magnitudes differ from them by more than
    rounding is refused with :class:`InvalidParameters` naming it."""
    c0, c1 = state.coefficients(0.0)
    stationary = (float(abs(c0)) ** 2, float(abs(c1)) ** 2)
    tiny = np.finfo(float).tiny
    for t, (a0, a1) in zip(times, coeffs):
        magnitudes = (float(abs(a0)) ** 2, float(abs(a1)) ** 2)
        # a nan or inf compares false, to be refused as non-finite later
        if any(abs(m - w) > _MAGNITUDE_RTOL * max(m, w, tiny)
               for m, w in zip(magnitudes, stationary)):
            raise InvalidParameters(
                f"the state's |c0|^2, |c1|^2 at t = {float(t)!r} are "
                f"{magnitudes[0]!r}, {magnitudes[1]!r}, not the "
                f"{stationary[0]!r}, {stationary[1]!r} of t = 0; the FFT "
                "engines need time-independent magnitudes")
    return stationary


def _cross_weights(c0: complex, c1: complex) -> np.ndarray:
    # W = A + 2 Re(conj(c0) c1 W01) = A + Re z Re W01 - Im z Im W01
    z = 2.0 * np.conj(c0) * c1
    return np.array([1.0, z.real, -z.imag])


def _identity_masses(basis, xs: np.ndarray, dx: float,
                     stationary: tuple[float, float],
                     weights: list[np.ndarray]) -> list[float]:
    """Mass of each frame from position space: trapezoid over x of |Psi|^2.

    Summed over all n_y momenta, a column's DFT is n_y times its y = 0
    sample, and dp * n_y * dy/(pi hbar) = 1, so the p-sum of column x is
    |Psi(x, t)|^2 = |c0|^2 f0^2 + |c1|^2 f1^2 + 2 Re(conj(c0) c1) f0 f1
    (Im W01 sums to 0).  It differs from the frame's trapezoid mass only
    by dp/2 times the frame's two end-momentum samples.
    """
    f0, f1 = basis(xs)
    s00, s11, s01 = np.einsum("ki,i->k", np.stack((f0 * f0, f1 * f1, f0 * f1)),
                              _trapezoid_weights(xs.size, dx))
    base = stationary[0] * s00 + stationary[1] * s11
    return [float(base + w[1] * s01) for w in weights]


def _edge_residue(basis, xs: np.ndarray, y: np.ndarray, coeffs,
                  scale: float) -> list[float]:
    """``imag_sup`` of each frame, from O(n_x) basis samples.

    Mirror pairs y, -y contribute conjugate terms, so the imaginary part
    of the discrete sum is exactly that of the unpaired y = -n_y/2*dy
    sample, Psi*(x + y[0]) Psi(x + y[n_y]).
    """
    (a0, a1), (b0, b1) = basis(xs + y[0]), basis(xs + y[-1])
    return [scale * float(np.max(np.abs(
        (np.conj(c0 * a0 + c1 * a1) * (c0 * b0 + c1 * b1)).imag)))
        for c0, c1 in coeffs]


def _run_frames(state, x_grid, times, n_y: int, check_mass: bool, reducers,
                x0: float | None = None):
    """Body of every FFT engine.

    Checks every frame's mass on the whole x grid, then transforms all
    columns, or only the column nearest ``x0`` when it is given, once, into
    one instance of each of ``reducers`` per frame.  Frames count against
    :data:`FRAME_BUDGET_BYTES` whole if a reducer holds them, else by what
    the reductions keep.  Returns the full grid, the transformed columns,
    the y lattice, the y scale dy/(pi hbar), each frame's coefficients and
    each frame's tuple of reducers.
    """
    for member in ("basis", "coefficients", "support_halfwidth"):
        if getattr(state, member, None) is None:
            raise InvalidParameters(
                f"the state has no {member!r}; the FFT engines need basis(x), "
                "coefficients(t) and support_halfwidth")
    if n_y < 4 or n_y & (n_y - 1):
        raise InvalidParameters(f"n_y must be a power of two >= 4, got {n_y}")
    xs = np.asarray(x_grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise InvalidGrid("x_grid must be a 1-D axis with at least 2 points")
    steps = np.diff(xs)
    if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.max():
        raise InvalidGrid("x_grid must be uniform and ascending")
    times = list(times)
    check_frame_budget(len(times), xs.size if x0 is None else 1, n_y,
                       any(r.holds_frame for r in reducers))

    dy = 2.0 * state.support_halfwidth / n_y
    # n_y + 1 points: (j - n_y/2) and (n_y/2 - j) are exact negatives
    y = (np.arange(n_y + 1) - n_y // 2) * dy
    scale = dy / (np.pi * HBAR)
    phase = np.where(np.arange(n_y // 2 + 1) % 2, -scale, scale)
    dp = np.pi * HBAR / (n_y * dy)
    grid = PhaseSpaceGrid(x_min=float(xs[0]), x_max=float(xs[-1]), n_x=xs.size,
                          p_min=-(n_y // 2) * dp, p_max=(n_y // 2 - 1) * dp,
                          n_p=n_y)
    if not times:
        return grid, xs, y, scale, [], []
    coeffs = [state.coefficients(t) for t in times]
    stationary = _stationary_weights(state, times, coeffs)
    weights = [_cross_weights(c0, c1) for c0, c1 in coeffs]
    if check_mass:
        for mass in _identity_masses(state.basis, xs, grid.dx, stationary,
                                     weights):
            _mass_check(mass)
    if x0 is not None:
        i = _nearest_column(grid.x_axis(), x0)
        xs = xs[i:i + 1]
    frames = [tuple(r(xs.size, grid, t) for r in reducers) for t in times]
    _transform(state.basis, xs, y, phase, stationary, weights, frames)
    return grid, xs, y, scale, coeffs, frames


def wigner_frames(state, x_grid: np.ndarray, times, n_y: int = 1024,
                  check_mass: bool = True) -> list[WignerField]:
    """FFT Wigner transform of ``state`` at each of ``times``; production path.

    For each x column the correlation C(y_j) = Psi*(x+y_j) Psi(x-y_j) is
    formed on the uniform lattice y_j = (j - n_y/2) * dy with
    dy = 2*L/n_y, L the state's ``support_halfwidth``, and its discrete
    Fourier transform yields the canonical momentum lattice p_k = k * dp,
    dp = pi*hbar/(n_y*dy), k = -n_y/2 .. n_y/2 - 1.  The fields' grids
    label it with a ``linspace`` between -(n_y/2) * dp and (n_y/2 - 1) * dp,
    within a few ulp of its end value of k * dp.  The scaling
    dy/(pi*hbar) makes each column match the direct quadrature at shared
    lattice points.

    ``state`` exposes ``basis(x) -> (f0, f1)``, two real arrays shaped
    like ``x``, ``coefficients(t) -> (c0, c1)`` and ``support_halfwidth``;
    a state lacking one raises :class:`InvalidParameters` naming it.  With
    Psi = c0(t) f0 + c1(t) f1 it is transformed once per call, and each
    frame is |c0|^2 W00 + |c1|^2 W11 + 2 Re(conj(c0) c1 W01).  The
    magnitudes |c0|^2 and |c1|^2 must not depend on t: they are taken from
    ``coefficients(0)``, and a time whose magnitudes differ from them by
    more than a few ulp raises :class:`InvalidParameters` naming it,
    before any transform.  A frame
    never depends on which other times are requested, so
    ``wigner_frames(s, xs, ts)[k]`` equals ``wigner_fft(s, xs, ts[k])``
    bit for bit.

    ``x_grid`` must be a uniform ascending 1-D axis.  ``n_y`` must be a
    power of two (>= 4).  The frames must fit :data:`FRAME_BUDGET_BYTES`
    and one block's temporaries :data:`BLOCK_BUDGET_BYTES`, else
    :class:`InvalidGrid` is raised before anything is allocated.  Columns
    are processed in fixed-size blocks, in order on the calling thread, and
    each frame's rows are stored while they are in cache, so memory is the
    frames plus one block.  Each field's ``imag_sup`` is the
    sup-norm of the imaginary part the real transform drops, taken from
    the two unpaired end samples of the y lattice in O(n_x).

    ``check_mass`` raises :class:`GridTooSmall`, before any transform, for
    a frame whose mass falls short of 1 by more than 1e-3, and
    :class:`NonFinite` for a mass that is not finite.  That mass is
    taken in position space, as the x trapezoid of |Psi(x, t)|^2 on
    ``x_grid``: the p-sum of every column is |Psi|^2, so it matches the
    frame's trapezoid mass to ~1e-11 without reading the lattice.  This is
    what lets :func:`fringe_spacings` transform a single column.
    """
    grid, xs, y, scale, coeffs, frames = _run_frames(
        state, x_grid, times, n_y, check_mass, (Band(np.inf),))
    residues = _edge_residue(state.basis, xs, y, coeffs, scale)
    return [WignerField(grid=grid, values=band.values, time=band.time,
                        method="fourier", imag_sup=r)
            for (band,), r in zip(frames, residues)]


def wigner_reduce(state, x_grid: np.ndarray, times, reducers,
                  n_y: int = 1024):
    """Transform ``state`` once and reduce every frame of ``times`` in cache.

    ``reducers`` are :class:`Band`, :class:`PositionRows`,
    :class:`MomentumRows` and :class:`NegativityRows`, in any selection;
    :class:`NegativityRows`, which clamps the block in place, goes last.
    Each frame's column blocks are combined once, in block order, into the
    call's scratch and read there by every reducer, so no frame is held
    unless a :class:`Band` is requested, and then only its band.  Returns
    the full phase-space grid and, per time, the tuple of the reducers'
    results.  Each result equals bit for bit :func:`crop_momentum`,
    :func:`marginal_position`, :func:`marginal_momentum` or
    :func:`negativity` of the held ``wigner_frames(state, x_grid, times,
    n_y)[k]``.  Memory is one block and its scratch plus what the reducers
    keep: at most 2 * (n_x + n_y) doubles per frame for the
    marginals and negativity.  Each frame's mass is checked as
    :func:`wigner_frames` checks it, and ``imag_sup`` is not computed.
    """
    reducers = tuple(reducers)
    if NegativityRows in reducers[:-1]:
        raise InvalidParameters("NegativityRows must be the last reducer")
    grid, *_, frames = _run_frames(state, x_grid, times, n_y, True, reducers)
    return grid, [tuple(r.result() for r in frame) for frame in frames]


def wigner_negativity(state, x_grid: np.ndarray, times,
                      n_y: int = 1024) -> list[NegativityReport]:
    """:func:`negativity` of each frame of ``times``, reduced inside the
    transform.

    ``wigner_negativity(state, x_grid, times, n_y)[k]`` equals
    ``negativity(wigner_frames(state, x_grid, times, n_y)[k])`` bit for
    bit.  It is :func:`wigner_reduce` with :class:`NegativityRows` alone:
    no frame is held, memory is one block and its scratch plus n_x doubles
    per time, and a volume or
    minimum that is not finite raises :class:`NonFinite`.
    """
    _, frames = wigner_reduce(state, x_grid, times, (NegativityRows,), n_y)
    return [report for (report,) in frames]


def wigner_fft(state, x_grid: np.ndarray, t: float, n_y: int = 1024,
               check_mass: bool = True, threads: int = 1) -> WignerField:
    """Single-time :func:`wigner_frames`; same state, lattice and bits.

    ``threads`` is kept only because the benchmark harness passes it.  A
    value below 1 raises :class:`InvalidParameters`; any other value is
    ignored.  It goes with the benchmark re-anchor in ROADMAP.md, which
    drops the harness's thread-count check.
    """
    if threads < 1:
        raise InvalidParameters(f"threads must be >= 1, got {threads}")
    return wigner_frames(state, x_grid, [t], n_y=n_y, check_mass=check_mass)[0]


def fringe_spacings(state, x_grid: np.ndarray, x0: float, times,
                    p_band: float = 4.0, n_y: int = 1024) -> list[float]:
    """:func:`fringe_spacing` at ``x0`` of each frame of ``times``.

    Equals ``fringe_spacing(wigner_frames(state, x_grid, times, n_y)[k],
    x0, p_band)`` bit for bit, but transforms only the ``x_grid`` column
    nearest ``x0``: one (1, n_y) column per frame is held, not a frame.
    Each frame's mass
    is still checked on the whole ``x_grid``, as :func:`wigner_frames`
    checks it.
    """
    grid, *_, frames = _run_frames(state, x_grid, times, n_y, True,
                                   (Band(np.inf),), x0=x0)
    ps = grid.p_axis()
    return [_profile_spacing(band.values[0], ps, p_band) for (band,) in frames]


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] = w[-1] = 0.5 * step
    return w


def _phase_space_trapezoid(values: np.ndarray, grid: PhaseSpaceGrid) -> float:
    # nested trapezoid, over p and then over x, as the marginals take it
    per_x = np.trapezoid(values, dx=grid.dp, axis=1)
    return float(np.trapezoid(per_x, dx=grid.dx))


def total_mass(field: WignerField) -> float:
    """Trapezoid integral of W over the whole grid; 1 for a unit state."""
    return _phase_space_trapezoid(field.values, field.grid)


def _unit_mass(marginal: np.ndarray, step: float, name: str) -> np.ndarray:
    # the marginal's own trapezoid is the field's nested-trapezoid mass, so
    # the guard reads no lattice beyond the marginal
    mass = float(np.trapezoid(marginal, dx=step))
    if abs(mass - 1.0) > 1e-3:
        raise GridTooSmall(f"{name} needs a unit-mass field, got mass {mass:.6f}")
    return marginal


def _reduce_held(field: WignerField, reducer):
    """Feed a held field's row blocks to ``reducer``, each copied into a
    reused block buffer as the engine combines it, and return its result;
    the reducer's temporaries stay cache-sized and its bits are those it
    gives inside the transform."""
    grid = field.grid
    blocks = _block_rows(grid.n_x, grid.n_p)
    scratch = _Scratch(blocks[0].stop, grid.n_p)
    reduce = reducer(grid.n_x, grid, field.time)
    for rows in blocks:
        values = scratch.values(rows)
        np.copyto(values, field.values[rows])
        reduce(rows, values, scratch)
    return reduce.result()


def marginal_position(field: WignerField) -> np.ndarray:
    """Position density P(x) = Integral W dp, aligned with grid.x_axis().

    Equals np.trapezoid(field.values, dx=dp, axis=1) bit for bit, through
    the :class:`PositionRows` reducer.  Requires the field mass to be
    within 1e-3 of unity (i.e. an uncropped field of a normalized state).
    """
    return _reduce_held(field, PositionRows)


def marginal_momentum(field: WignerField) -> np.ndarray:
    """Momentum density P~(p) = Integral W dx, aligned with grid.p_axis().

    Equals np.trapezoid(field.values, dx=dx, axis=0) bit for bit, through
    the :class:`MomentumRows` reducer.
    """
    return _reduce_held(field, MomentumRows)


def overlap_integral(field_a: WignerField, field_b: WignerField) -> float:
    """Raw double integral of W_a * W_b over phase space (trapezoid).

    Proportional to the squared wavefunction overlap; the proportionality
    constant (1/(2*pi*hbar) for unit states on this transform convention)
    is measured empirically by the test suite rather than asserted.
    """
    if field_a.grid != field_b.grid:
        raise GridMismatch("overlap requires identical phase-space grids")
    return _phase_space_trapezoid(field_a.values * field_b.values, field_a.grid)


def negativity(field: WignerField) -> NegativityReport:
    """Integrated negative volume plus the most negative sample.

    The field's row blocks go through the :class:`NegativityRows` reducer
    :func:`wigner_negativity` runs inside the transform, so the two agree
    bit for bit.
    """
    return _reduce_held(field, NegativityRows)


def _nearest_column(xs: np.ndarray, x0: float) -> int:
    # the first of two equally near columns, as argmin picks it
    return int(np.argmin(np.abs(xs - x0)))


# Sign changes whose two samples both sit below this share of the profile's
# peak magnitude are ignored: in the far tail the profile is rounding noise
# of the transform, which changes sign without being a fringe.
_FRINGE_FLOOR_REL = 1e-9

# Samples of [-L, L] searched for the peaks of |psi0| and |psi1|: the
# domain search's lattice, which resolves a peak to L/2000.
_MIDPOINT_SAMPLES = 4001


def _profile_spacing(profile: np.ndarray, ps: np.ndarray, p_band: float) -> float:
    """Mean distance between consecutive zero crossings of ``profile`` over
    the momenta ``ps``, restricted to |p| <= p_band; see
    :func:`fringe_spacing`."""
    band = _band_columns(ps, p_band)
    prof, pb = profile[band], ps[band]
    if prof.size < 4:
        raise NoFringes(f"band |p| <= {p_band} holds fewer than 4 samples")
    floor = _FRINGE_FLOOR_REL * np.max(np.abs(prof))
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


def fringe_spacing(field: WignerField, x0: float, p_band: float = 4.0) -> float:
    """Mean distance between consecutive zero crossings of W(x0, p).

    The profile is the lattice column nearest x0, restricted to
    |p| <= p_band.  Sign changes whose neighbouring samples both sit
    below 1e-9 times the profile's peak magnitude are ignored; they are
    floating-point noise in the far tail, not fringes.  Raises
    :class:`NoFringes` when fewer than three sign changes remain.
    """
    column = field.values[_nearest_column(field.grid.x_axis(), x0)]
    return _profile_spacing(column, field.grid.p_axis(), p_band)


def interference_midpoint(state) -> float:
    """Midpoint between the peaks of |psi0| and |psi1|.

    Natural fringe-cut abscissa for asymmetric wells, where the two
    eigenstates concentrate in different wells.  (Symmetric wells use
    x0 = 0, the barrier centre, by parity.)
    """
    model = state.model
    xs = np.linspace(-model.L, model.L, _MIDPOINT_SAMPLES)
    psi0, psi1 = model.states(xs)
    x_pk0 = xs[int(np.argmax(np.abs(psi0)))]
    x_pk1 = xs[int(np.argmax(np.abs(psi1)))]
    return 0.5 * (x_pk0 + x_pk1)


def crop_momentum(field: WignerField, p_max: float) -> WignerField:
    """Sub-field restricted to |p| <= p_max (same x axis and spacing).

    Intended for emission: the FFT lattice spans far beyond the
    spectral support.  Mass invariants apply to the full field only.
    :class:`Band` cuts the same band inside the transform.
    """
    cols, sub = _band(field.grid, p_max)
    return WignerField(grid=sub, values=field.values[:, cols].copy(),
                       time=field.time, method=field.method,
                       imag_sup=field.imag_sup)
