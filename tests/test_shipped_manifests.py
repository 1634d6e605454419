"""End-to-end manifests of the shipped scenarios, pinned per platform.

The closed forms go through numpy's SIMD ``exp``/``log`` and the
transform through its FFT, whose last bits may differ between numpy
versions and CPU dispatch targets.  The pinned digests therefore carry
the key they were recorded under, and the test skips on any other key.

A change that moves emitted bytes on purpose first lists what it moved
against a revision REV, e.g. ``HEAD``:

    PYTHONPATH=src python tests/test_shipped_manifests.py --against REV

This extracts REV's tree with ``git archive``, runs the shipped scenarios
of that tree and of the working tree, each in its own interpreter, and
prints per file whether its bytes moved: for a CSV, the largest absolute
and relative change per column (a matrix's values pooled) and whether the
header or an axis column moved; for a PPM, the changed pixels and the
largest channel change; for a text file, the keys that changed.  It exits
1 if a file appeared or disappeared.  Then regenerate the pins, once, with

    PYTHONPATH=src python tests/test_shipped_manifests.py
"""

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np
import pytest

from doublewell import run_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "src" / "doublewell" / "scenarios"
PINNED = Path(__file__).with_name("shipped_manifests.json")
SCENARIOS = sorted(path.stem for path in SCENARIO_DIR.glob("*.scn"))


def platform_key() -> dict:
    """numpy version, machine and the SIMD targets numpy dispatches to here."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        dispatch = None
    else:
        dispatch = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return {"numpy": np.__version__, "machine": platform.machine(),
            "simd_dispatch": dispatch}


# the digests are pinned at the default threads=1; run_scenario ignores any
# threads >= 1, and the threads2 cases check that it moves no byte until the
# benchmark harness stops passing the keyword
@pytest.mark.parametrize("stem,threads", [
    *(pytest.param(stem, 1, id=stem) for stem in SCENARIOS),
    *(pytest.param(stem, 2, id=f"{stem}-threads2") for stem in SCENARIOS),
])
def test_shipped_scenario_manifest(stem, threads, tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    if pinned["key"] != platform_key():
        pytest.skip(f"digests pinned for {pinned['key']}, running on {platform_key()}")
    assert (run_scenario(SCENARIO_DIR / f"{stem}.scn", tmp_path, threads=threads)
            == pinned["manifests"][stem])


# In a fresh interpreter: import doublewell, parse every shipped scenario,
# run each one without a bench output, then bench_symmetric.  Prints the
# scipy and orjson modules loaded after each stage (the first run is the
# first to write a table) and every manifest.
_SOLVE_LAST = """
import json, sys, tempfile
from pathlib import Path
from doublewell import parse_scenario, run_scenario

lazy_modules = lambda: sorted(m for m in sys.modules
                              if m.split(".")[0] in ("scipy", "orjson"))
paths = sorted(Path(sys.argv[1]).glob("*.scn"))
scenarios = {path.stem: parse_scenario(path) for path in paths}
loaded = {"import and parse": lazy_modules()}
manifests = {}
with tempfile.TemporaryDirectory() as tmp:
    for stem, scn in scenarios.items():
        if "bench" not in scn.outputs:
            manifests[stem] = run_scenario(scn, Path(tmp, stem))
            loaded.setdefault("first run", lazy_modules())
    loaded["no-bench runs"] = lazy_modules()
    manifests["bench_symmetric"] = run_scenario(scenarios["bench_symmetric"],
                                                Path(tmp, "bench_symmetric"))
    loaded["bench run"] = lazy_modules()
print(json.dumps({"loaded": loaded, "manifests": manifests}))
"""


def test_only_the_bench_output_loads_scipy():
    # and orjson loads at the first table write, not at import
    env = dict(os.environ, PYTHONPATH=str(SCENARIO_DIR.parents[1]))
    done = subprocess.run([sys.executable, "-c", _SOLVE_LAST, str(SCENARIO_DIR)],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    assert sorted(result["manifests"]) == SCENARIOS
    assert result["loaded"]["import and parse"] == []
    assert "orjson" in result["loaded"]["first run"]
    assert [m for m in result["loaded"]["no-bench runs"] if "orjson" not in m] == []
    assert "scipy.linalg" in result["loaded"]["bench run"]
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    if pinned["key"] != platform_key():
        pytest.skip(f"digests pinned for {pinned['key']}, running on {platform_key()}")
    assert result["manifests"] == pinned["manifests"]


# Columns that place the values beside them (a grid, a sweep, the fringe
# cut x0): a change that only rescales states moves none of them.  A matrix
# CSV's first column is named row\col.
AXIS_COLUMNS = {"x", "p", "time", "delta_e", "x0"}

# In a fresh interpreter: run every scenario in argv[1] into argv[2]/<stem>.
_RUN_SHIPPED = """
import sys
from pathlib import Path
from doublewell import run_scenario

for path in sorted(Path(sys.argv[1]).glob("*.scn")):
    run_scenario(path, Path(sys.argv[2], path.stem))
"""


def run_shipped(root: Path, out: Path) -> None:
    """Run the shipped scenarios of the tree at ``root`` with its own package."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", _RUN_SHIPPED,
                    str(root / "src" / "doublewell" / "scenarios"), str(out)],
                   env=env, check=True)


def _change(old: np.ndarray, new: np.ndarray) -> str:
    diff = np.abs(new - old)
    if not diff.any():
        return "kept"
    with np.errstate(divide="ignore"):
        rel = diff[diff > 0] / np.abs(old[diff > 0])
    return f"abs {diff.max():.2g} rel {rel.max():.2g}"


def _csv(path: Path):
    # the header line and the rows of floats below it
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header, np.array([[float(v) for v in row.split(",")] for row in rows], ndmin=2)


def _csv_change(old_path: Path, new_path: Path) -> str:
    (old_head, old), (new_head, new) = _csv(old_path), _csv(new_path)
    parts = [f"header {'kept' if old_head == new_head else 'moved'}"]
    if old.shape != new.shape:
        return "; ".join(parts + [f"shape {old.shape} -> {new.shape}"])
    names = new_head.split(",")
    if "\\" in names[0]:
        columns = [(names[0].split("\\")[0], slice(0, 1)), ("values", slice(1, None))]
    else:
        columns = [(name, slice(i, i + 1)) for i, name in enumerate(names)]
    for name, cols in columns:
        axis = " (axis)" if name in AXIS_COLUMNS else ""
        parts.append(f"{name}{axis} {_change(old[:, cols], new[:, cols])}")
    return "; ".join(parts)


def _ppm(path: Path):
    # the P6 header (magic, size, maxval) and its RGB pixels, one row each
    magic, size, maxval, pixels = path.read_bytes().split(b"\n", 3)
    return (magic, size, maxval), np.frombuffer(pixels, np.uint8).reshape(-1, 3)


def _ppm_change(old_path: Path, new_path: Path) -> str:
    (old_head, old), (new_head, new) = _ppm(old_path), _ppm(new_path)
    if old_head != new_head:
        return f"header {old_head!r} -> {new_head!r}"
    changed = np.abs(new.astype(int) - old.astype(int))
    return (f"{int(changed.any(axis=1).sum())} of {len(new)} pixels changed, "
            f"largest channel change {int(changed.max())}")


def _text_change(old_path: Path, new_path: Path) -> str:
    old, new = (dict(line.partition("=")[::2]
                     for line in path.read_text(encoding="utf-8").splitlines())
                for path in (old_path, new_path))
    keys = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    return f"keys changed: {', '.join(keys) if keys else 'none'}"


def value_diff(old_root: Path, new_root: Path) -> tuple[list[str], bool]:
    """Report lines comparing the files under two output trees, and whether
    a file appeared or disappeared.  Files whose bytes are kept are listed
    on one line per directory."""
    old, new = ({path.relative_to(root).as_posix() for path in root.rglob("*")
                 if path.is_file()} for root in (old_root, new_root))
    lines, kept, moved = [], {}, 0
    for name in sorted(old | new):
        if name not in new or name not in old:
            lines.append(f"{name}: {'disappeared' if name in old else 'appeared'}")
            continue
        a, b = old_root / name, new_root / name
        if a.read_bytes() == b.read_bytes():
            folder, _, file = name.rpartition("/")
            kept.setdefault(folder, []).append(file)
            continue
        moved += 1
        change = {".csv": _csv_change, ".ppm": _ppm_change}.get(b.suffix, _text_change)
        lines.append(f"{name}: moved; {change(a, b)}")
    lines += [f"{folder}/: kept {', '.join(files)}" for folder, files in kept.items()]
    lines.append(f"{moved} of {len(old | new)} files moved, "
                 f"{len(new - old)} appeared, {len(old - new)} disappeared")
    return lines, old != new


def report_against(rev: str) -> int:
    """Print the value diff of the shipped outputs from ``rev`` to the
    working tree; 1 if a file appeared or disappeared."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "tree", filter="data")
        run_shipped(tmp / "tree", tmp / "old")
        run_shipped(ROOT, tmp / "new")
        lines, files_differ = value_diff(tmp / "old", tmp / "new")
    print(f"shipped outputs, {rev} -> working tree")
    print("\n".join(lines))
    return int(files_differ)


def test_value_diff_names_what_moved(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, psi, w, pixel, digest in ((old, "0.5", "2.0", b"\x00\x01\x02", "a"),
                                        (new, "0.25", "3.0", b"\x00\x01\x07", "b")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "states.csv").write_text(f"x,psi0\n-1.0,{psi}\n1.0,0.5\n")
        (root / "run" / "wigner.csv").write_text(f"x\\p,-1.0,1.0\n0.0,1.0,{w}\n")
        (root / "run" / "wigner.ppm").write_bytes(b"P6\n2 1\n255\n\x00\x00\x00" + pixel)
        (root / "run" / "times.csv").write_text("index,time\n0.0,0.0\n")
        (root / "run" / "manifest.txt").write_text(f"states.csv=sha256:{digest}\nw=c\n")
    lines, files_differ = value_diff(old, new)
    assert lines == [
        "run/manifest.txt: moved; keys changed: states.csv",
        "run/states.csv: moved; header kept; x (axis) kept; psi0 abs 0.25 rel 0.5",
        "run/wigner.csv: moved; header kept; x (axis) kept; values abs 1 rel 0.5",
        "run/wigner.ppm: moved; 1 of 2 pixels changed, largest channel change 5",
        "run/: kept times.csv",
        "4 of 5 files moved, 0 appeared, 0 disappeared",
    ]
    assert not files_differ
    (new / "run" / "times.csv").rename(new / "run" / "extra.csv")
    lines, files_differ = value_diff(old, new)
    assert files_differ
    assert "run/extra.csv: appeared" in lines and "run/times.csv: disappeared" in lines


def regenerate() -> None:
    """Pin the digests of every shipped scenario run here, under this
    platform's key."""
    with tempfile.TemporaryDirectory() as tmp:
        manifests = {stem: run_scenario(SCENARIO_DIR / f"{stem}.scn", Path(tmp, stem))
                     for stem in SCENARIOS}
    old = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
    old_manifests = old.get("manifests", {}) if old.get("key") == platform_key() else {}
    # name every digest that moved, so a change that moves bytes on purpose
    # shows exactly what it moved
    for stem, manifest in manifests.items():
        for name, digest in manifest.items():
            before = old_manifests.get(stem, {}).get(name)
            if before != digest:
                print(f"{name}: {before} -> {digest}", file=sys.stderr)
    record = {"key": platform_key(), "manifests": manifests}
    PINNED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"pinned {sum(map(len, manifests.values()))} digests "
          f"of {len(SCENARIOS)} scenarios in {PINNED}", file=sys.stderr)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="report what moved since REV instead of regenerating the pins")
    args = parser.parse_args()
    sys.exit(report_against(args.against) if args.against else regenerate())
