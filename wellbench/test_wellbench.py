"""Tests for the benchmark itself: seeded inputs, clean passes, failure counting.

Run from the repository root: python -m pytest wellbench
"""

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, pass_texts  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_generated_text(workload):
    first = pass_texts(workload, 7, 3, run.SCENARIO_DIR)
    assert pass_texts(workload, 7, 3, run.SCENARIO_DIR) == first
    assert pass_texts(workload, 8, 3, run.SCENARIO_DIR) != first
    assert pass_texts(workload, 7, 4, run.SCENARIO_DIR) != first


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_pass_has_no_failures(workload, tmp_path):
    threads = WORKLOADS[workload].threads
    result = run.run_pass(run.load_pass(workload, 1, 0), tmp_path / "p0", threads)
    tally = run.Tally()
    run.check_pass(result, 0, threads, tally)
    run.check_once(result, threads, tmp_path, tally)
    assert tally.attempted == len(result.calls) + 1
    assert not tally.failed, tally.messages


def test_corrupted_artifact_counts_as_failure(tmp_path):
    fig3 = [s for s in run.load_pass("figures", 1, 0) if s.name == "fig3_asymmetric"]
    result = run.run_pass(fig3, tmp_path / "p0", 1)
    scn, out, manifest = result.calls[0]
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    victim = next(p for p in sorted(copy.iterdir()) if p.suffix == ".csv")
    data = bytearray(victim.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("3")
    victim.write_bytes(bytes(data))

    clean, corrupt = run.Tally(), run.Tally()
    run.check_pass(result, 0, 1, clean)
    run.check_pass(run.PassResult(0.0, 0.0, [(scn, copy, manifest)]), 0, 1, corrupt)
    assert not clean.failed
    assert corrupt.attempted == 1 and len(corrupt.failed) == 1
    assert any("digest mismatch" in m for m in corrupt.messages)


def test_self_time_subtracts_the_union_of_children():
    rec = spans.Recorder()
    parent = spans.Span(0, "cli.run_scenario", 0.0, None, 1, end=10.0)
    kids = [spans.Span(1, "wigner.transform.chunk", 1.0, 0, 2, end=5.0),
            spans.Span(2, "wigner.transform.chunk", 2.0, 0, 3, end=6.0),
            spans.Span(3, "emit.hash", 8.0, 0, 1, end=9.0)]
    rec.spans = [parent, *kids]
    selfs = spans.self_times(rec.spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(4.0)


def test_installed_restores_every_target():
    from doublewell import cli, emit, wellcore
    before = (cli.wigner_fft, emit.sha256_hex, vars(wellcore.WellModel)["build"])
    with spans.installed(spans.Recorder()):
        assert cli.wigner_fft is not before[0]
    assert (cli.wigner_fft, emit.sha256_hex,
            vars(wellcore.WellModel)["build"]) == before


def test_expected_artifacts_cover_a_sweep():
    scn = run.load_pass("large_grid", 1, 0)[0]
    names = checks.expected_artifacts(scn)
    assert f"{scn.name}_fringes.csv" in names
    assert sum(n.endswith("times.csv") for n in names) == 3
