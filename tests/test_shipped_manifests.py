"""End-to-end manifests of the shipped scenarios, pinned per platform.

The closed forms go through numpy's SIMD ``exp``/``log`` and the
transform through its FFT, whose last bits may differ between numpy
versions and CPU dispatch targets.  The pinned digests therefore carry
the key they were recorded under, and the test skips on any other key.
After a change that moves emitted bytes on purpose, regenerate them with

    PYTHONPATH=src python tests/test_shipped_manifests.py
"""

import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from doublewell import run_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "doublewell" / "scenarios"
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


if __name__ == "__main__":
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
