"""Deterministic file emission: CSV tables, portable-pixmap rasters, manifests.

Floats are written with Python's shortest round-trip repr, so
parse(emit(x)) == x bit-exactly.  All files use UTF-8, ',' separators,
and '\\n' line endings; identical inputs produce identical bytes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import NonFinite
from .wigner import WignerField

__all__ = [
    "format_float",
    "write_csv_columns",
    "write_csv_matrix",
    "read_csv_matrix",
    "heatmap_bytes",
    "write_heatmap",
    "sha256_hex",
    "write_manifest",
]


def format_float(v: float) -> str:
    return repr(float(v))


def _check_finite(arr):
    if not np.all(np.isfinite(arr)):
        raise NonFinite("refusing to emit non-finite values")


def write_csv_columns(path: str | Path, headers: list[str], *columns) -> Path:
    """Column-oriented CSV, e.g. headers ['x', 'P']."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len(headers) != len(columns):
        raise ValueError("one header per column required")
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    for c in columns:
        _check_finite(c)
    lines = [",".join(headers)]
    for row in zip(*columns):
        lines.append(",".join(format_float(v) for v in row))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_csv_matrix(path: str | Path, row_name: str, col_name: str,
                     row_vals, col_vals, matrix) -> Path:
    """Matrix CSV: header '<row>\\<col>,c0,c1,...', one row per row value."""
    matrix = np.asarray(matrix, dtype=float)
    row_vals = np.asarray(row_vals, dtype=float)
    col_vals = np.asarray(col_vals, dtype=float)
    if matrix.shape != (row_vals.size, col_vals.size):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match axes "
            f"({row_vals.size}, {col_vals.size})")
    _check_finite(matrix)
    lines = [f"{row_name}\\{col_name}," + ",".join(format_float(c) for c in col_vals)]
    for rv, row in zip(row_vals, matrix):
        lines.append(format_float(rv) + "," + ",".join(format_float(v) for v in row))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_csv_matrix(path: str | Path):
    """Inverse of :func:`write_csv_matrix`; returns (row_vals, col_vals, matrix)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    col_vals = np.array([float(v) for v in header[1:]])
    row_vals = []
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row_vals.append(float(cells[0]))
        rows.append([float(v) for v in cells[1:]])
    return np.array(row_vals), col_vals, np.array(rows)


def heatmap_bytes(field: WignerField) -> bytes:
    """Binary PPM (P6) raster of a Wigner field.

    One pixel per lattice node; x runs left to right ascending, p bottom
    to top ascending.  Diverging linear map with A = max|W|:

        v >= 0:  (r, g, b) = (255, q, q)   with q = rint(255 * (1 - v/A))
        v <  0:  (r, g, b) = (q, q, 255)   with q = rint(255 * (1 + v/A))

    A zero field (A = 0) renders all white.  Values within half a
    quantization step of zero round to pure white, so sub-1e-8 noise on
    a nonnegative field never produces blue pixels.
    """
    w = field.values
    amp = float(np.max(np.abs(w)))
    n_x, n_p = w.shape
    img = np.full((n_p, n_x, 3), 255, dtype=np.uint8)
    if amp > 0.0:
        # rows top->bottom correspond to p descending
        v = w.T[::-1, :] / amp
        q = np.rint(255.0 * (1.0 - np.abs(v))).astype(np.uint8)
        pos = v >= 0.0
        img[..., 0] = np.where(pos, 255, q)
        img[..., 1] = q
        img[..., 2] = np.where(pos, q, 255)
    header = f"P6\n{n_x} {n_p}\n255\n".encode("ascii")
    return header + img.tobytes()


def write_heatmap(path: str | Path, field: WignerField) -> Path:
    path = Path(path)
    path.write_bytes(heatmap_bytes(field))
    return path


def sha256_hex(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path: str | Path, entries: dict[str, str]) -> Path:
    """key=value manifest, one 'name=sha256:<hex>' line, sorted by name."""
    lines = [f"{name}=sha256:{digest}" for name, digest in sorted(entries.items())]
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
