"""Deterministic file emission: CSV tables, portable-pixmap rasters, manifests.

The only code that formats and writes artifact bytes.  Both CSV shapes
go through one row writer: ',' separators, floats in Python's shortest
round-trip repr (:func:`format_float`), so parse(emit(x)) == x bit-exactly.
The row writer makes those bytes with one compiled call per block of rows:
orjson's shortest round-trip formatter (Ryu; Adams, PLDI 2018) picks the
same digits as repr, and three byte rewrites, which never touch a digit,
turn its notation into repr's.
Every file goes through one byte writer, which streams it to disk in
chunks, so a table is never held whole; text is encoded as UTF-8, so
'\\n' line endings hold on every platform and identical inputs give
identical bytes.  A non-finite value is refused before anything is
written, naming the file and its column, and a write that fails part-way
removes its file.
"""

from __future__ import annotations

import hashlib
import re
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
    "write_text",
    "sha256_hex",
    "write_manifest",
]


def format_float(v: float) -> str:
    """Shortest round-trip text of ``v``: the form of every emitted float."""
    return repr(float(v))


# Values formatted per chunk of a table: a few hundred KiB of text at most.
_CHUNK_VALUES = 1 << 13


def _write(path: str | Path, chunks) -> Path:
    # the one byte writer: writes the byte chunks in order, and a write that
    # fails part-way, in a chunk or on disk, leaves no file behind; an open
    # that fails touches nothing, as the file is not this write's
    path = Path(path)
    fh = open(path, "wb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` as UTF-8, with its '\\n' line endings kept as they are."""
    return _write(path, [text.encode("utf-8")])


# orjson's text differs from repr's only in its notation, in three ways.  Each
# rewrite's pattern starts with a literal and rarely matches, so the regex
# engine skips ahead by a literal search.
_POSITIVE_EXPONENT = re.compile(rb"e(?=\d)")        # 1e16 -> 1e+16
_ONE_DIGIT_EXPONENT = re.compile(rb"e-(?=\d[],])")  # 1e-9 -> 1e-09
_FIXED_E_05 = re.compile(rb"0\.0000(\d)(\d*)")     # 0.000015 -> 1.5e-05


def _exponent_e_05(m: re.Match) -> bytes:
    # orjson writes 1e-5 <= |x| < 1e-4 in fixed notation, repr in exponent
    # notation; a match that does not begin a number (10.00001) is kept
    if m.string[m.start() - 1] not in b"[,-":
        return m[0]
    lead, rest = m.groups()
    return lead + b"." + rest + b"e-05" if rest else lead + b"e-05"


def _table_chunks(headers: list[str], table: np.ndarray):
    # a header line, then the 2-D float table formatted a block of rows at
    # a time, each row one line.  One orjson.dumps call writes a block as
    # [[v,v],[v,v]] with the shortest digits that round-trip, as repr does;
    # the rewrites above give each value repr's exact bytes, and the rows
    # split on "],[".  orjson is imported at the first table write.
    import orjson

    yield (",".join(headers) + "\n").encode("utf-8")
    step = max(1, _CHUNK_VALUES // table.shape[1])
    for lo in range(0, table.shape[0], step):
        text = orjson.dumps(table[lo:lo + step], option=orjson.OPT_SERIALIZE_NUMPY)
        text = _POSITIVE_EXPONENT.sub(b"e+", text)
        text = _ONE_DIGIT_EXPONENT.sub(b"e-0", text)
        text = _FIXED_E_05.sub(_exponent_e_05, text)
        yield text[2:-2].replace(b"],[", b"\n") + b"\n"


def _write_table(path: str | Path, headers: list[str], table: np.ndarray) -> Path:
    bad = ~np.isfinite(table).all(axis=0)
    if bad.any():
        raise NonFinite(f"{Path(path).name}: refusing to emit non-finite values "
                        f"in column {headers[int(np.argmax(bad))]}")
    return _write(path, _table_chunks(headers, table))


def write_csv_columns(path: str | Path, headers: list[str], *columns) -> Path:
    """Column-oriented CSV, e.g. headers ['x', 'P']."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len(headers) != len(columns):
        raise ValueError("one header per column required")
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    return _write_table(path, headers, np.column_stack(columns))


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
    headers = [f"{row_name}\\{col_name}", *map(repr, col_vals.tolist())]
    return _write_table(path, headers, np.column_stack((row_vals, matrix)))


def read_csv_matrix(path: str | Path):
    """Inverse of :func:`write_csv_matrix`; returns (row_vals, col_vals, matrix)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    col_vals = np.array([float(v) for v in lines[0].split(",")[1:]])
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return table[:, 0], col_vals, table[:, 1:]


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
    return _write(path, [heatmap_bytes(field)])


def sha256_hex(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path: str | Path, entries: dict[str, str]) -> Path:
    """key=value manifest, one 'name=sha256:<hex>' line, sorted by name."""
    lines = [f"{name}=sha256:{digest}" for name, digest in sorted(entries.items())]
    return write_text(path, "\n".join(lines) + "\n")
