"""Scenario parsing, file emission, and CLI determinism."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from doublewell import (
    InvalidParameters,
    ScenarioParseError,
    ScenarioValidationError,
    parse_scenario,
    parse_scenario_text,
    run_scenario,
)
from doublewell.cli import main
from doublewell.emit import (
    format_float,
    heatmap_bytes,
    read_csv_matrix,
    write_csv_columns,
    write_csv_matrix,
)
from doublewell.wigner import PhaseSpaceGrid, WignerField

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "doublewell" / "scenarios"

MINIMAL = """
well.kind = symmetric
well.e0 = -1
well.e1 = -0.9
outputs = potential
"""


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def test_parse_minimal():
    scn = parse_scenario_text(MINIMAL, name="mini")
    assert scn.kind == "symmetric"
    assert scn.e0 == -1.0 and scn.e1 == -0.9
    assert scn.outputs == ["potential"]
    assert scn.theta == pytest.approx(math.pi / 4)
    assert scn.n_x == 256 and scn.n_y == 1024


def test_parse_rejects_unknown_key():
    with pytest.raises(ScenarioParseError, match="unknown key 'wel.kind'"):
        parse_scenario_text("wel.kind = symmetric\noutputs = potential\n")


def test_parse_reports_missing_well_kind():
    with pytest.raises(ScenarioParseError, match="well.kind"):
        parse_scenario_text("well.e0 = -1\noutputs = potential\n")


def test_parse_reports_line_numbers():
    text = "well.kind = symmetric\nbogus line without equals\n"
    with pytest.raises(ScenarioParseError, match="line 2"):
        parse_scenario_text(text)


def test_parse_rejects_duplicates_and_empty_values():
    base = "well.kind = symmetric\nwell.e0 = -1\nwell.e1 = -0.9\noutputs = potential\n"
    with pytest.raises(ScenarioParseError, match="duplicate"):
        parse_scenario_text(base + "well.e0 = -2\n")
    with pytest.raises(ScenarioParseError, match="empty value"):
        parse_scenario_text(base + "theta =\n")


def test_parse_angle_and_time_tokens():
    text = """
well.kind = asymmetric
well.alpha = 0.9
well.beta = 1
well.e0 = 0
well.delta_e = 1
theta = pi/8
times = 0, T/8, 0.25T, 1.5
outputs = wigner
"""
    scn = parse_scenario_text(text)
    assert scn.theta == pytest.approx(math.pi / 8)
    resolved = [spec.resolve(8.0) for spec in scn.times]
    assert resolved == [0.0, 1.0, 2.0, 1.5]


def test_parse_sweep_excludes_fixed_splitting():
    text = """
well.kind = symmetric
well.e0 = -1
well.e1 = -0.9
sweep.delta_e = 0.25,0.5
outputs = wigner
"""
    with pytest.raises(ScenarioParseError, match="mutually exclusive"):
        parse_scenario_text(text)


def test_parse_validates_physics():
    text = """
well.kind = symmetric
well.e0 = -0.5
well.e1 = -0.9
outputs = potential
"""
    with pytest.raises(ScenarioValidationError, match="E0 < E1"):
        parse_scenario_text(text)


@pytest.mark.parametrize("line", [
    "grid.p_max = nan",
    "fringes.p_band = nan",
    "grid.x_max = inf",
    "times = 0, nan",
    "theta = nan",
    "tail_rel = -inf",
])
def test_parse_rejects_non_finite_values(line):
    key = line.split(" =")[0]
    with pytest.raises(ScenarioParseError, match=f"{key}: expected a finite number"):
        parse_scenario_text(MINIMAL + line + "\n")


@pytest.mark.parametrize("line,message", [
    ("times = 0, T/0", "times: division by zero in 'T/0'"),
    ("theta = pi/0", "theta: division by zero in 'pi/0'"),
    ("theta = 0*pi/0.0", "theta: division by zero in '0\\*pi/0.0'"),
    ("times = " + "9" * 400 + "T", "times: expected a finite number"),
    ("theta = " + "9" * 400 + "*pi", "theta: expected a finite number"),
], ids=["T/0", "pi/0", "0*pi/0.0", "400-digit T", "400-digit pi"])
def test_parse_rejects_bad_fractions(line, message):
    with pytest.raises(ScenarioParseError, match=message):
        parse_scenario_text(MINIMAL + line + "\n")


@pytest.mark.parametrize("flag,token", [("--times", "T/0"), ("--theta", "pi/0")])
def test_cli_rejects_zero_divisor(flag, token, tmp_path, capsys):
    code = main(["wigner", "--well", "symmetric", "--e0", "-1", "--e1", "-0.9",
                 flag, token, "--out-dir", str(tmp_path / "z")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}: division by zero")


def test_parse_rejects_non_finite_sweep_value():
    text = MINIMAL.replace("well.e1 = -0.9\n", "sweep.delta_e = 0.25, inf\n")
    with pytest.raises(ScenarioParseError, match="sweep.delta_e: expected a finite"):
        parse_scenario_text(text)


@pytest.mark.parametrize("name", ["../../escape", "sub/name", "..", ".", "a\\b"])
def test_parse_rejects_name_outside_out_dir(name, tmp_path):
    with pytest.raises(ScenarioParseError, match="plain file stem"):
        parse_scenario_text(MINIMAL + f"name = {name}\n")
    with pytest.raises(ScenarioParseError, match="plain file stem"):
        parse_scenario_text(MINIMAL, name=name)


def test_run_scenario_rejects_bad_thread_count(tmp_path):
    scn = parse_scenario_text(MINIMAL, name="mini")
    with pytest.raises(InvalidParameters, match="threads"):
        run_scenario(scn, tmp_path / "out", threads=0)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_cli_rejects_bad_thread_flag(value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scenario", str(SCENARIO_DIR / "fig2_symmetric.scn"),
              "--out-dir", str(tmp_path / "s"), "--threads", value])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_parse_validates_grid():
    with pytest.raises(ScenarioValidationError, match="power of two"):
        parse_scenario_text(MINIMAL + "grid.n_y = 1000\n")


@pytest.mark.parametrize("grid", [
    "grid.n_y = 1099511627776",
    "grid.n_x = 1048577\ngrid.n_y = 1024",
    "grid.n_x = 1024\ngrid.n_y = 1024\ntimes = " + ",".join(["0"] * 129),
], ids=["n_y", "n_x", "times"])
def test_parse_refuses_frames_above_byte_budget(grid):
    # a grid too big for the Wigner frames fails at parse time, and only
    # when frames are requested
    text = MINIMAL + grid + "\n"
    parse_scenario_text(text)
    with pytest.raises(ScenarioValidationError,
                       match="grid.n_x, grid.n_y, times: .*byte budget"):
        parse_scenario_text(text.replace("outputs = potential", "outputs = negativity"))


@pytest.mark.parametrize("ladder", ["8", "-3,0", "751,15"])
def test_parse_rejects_small_bench_rungs(ladder):
    with pytest.raises(ScenarioValidationError, match="bench.ladder: need >= 16"):
        parse_scenario_text(MINIMAL + f"bench.ladder = {ladder}\n")
    assert parse_scenario_text(MINIMAL + "bench.ladder = 16\n").bench_ladder == [16]


def test_all_shipped_scenarios_parse():
    files = sorted(SCENARIO_DIR.glob("*.scn"))
    assert len(files) >= 9
    for path in files:
        scn = parse_scenario_text(path.read_text(), name=path.stem)
        assert scn.outputs


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_matrix_csv_round_trip(tmp_path):
    m = np.array([[1.0 / 3.0, -2.5e-17], [math.pi, 7.0]])
    path = write_csv_matrix(tmp_path / "m.csv", "x", "p",
                            [0.1, 0.2], [-1.0, 1.0], m)
    rows, cols, back = read_csv_matrix(path)
    assert np.array_equal(back, m)
    assert np.array_equal(rows, [0.1, 0.2])
    assert np.array_equal(cols, [-1.0, 1.0])
    assert path.read_text().splitlines()[0].startswith("x\\p,")


def test_column_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="columns differ in length: \\[3, 1\\]"):
        write_csv_columns(tmp_path / "c.csv", ["a", "b"], [1.0, 2.0, 3.0], [4.0])
    assert not (tmp_path / "c.csv").exists()


def test_column_csv_headers(tmp_path):
    path = write_csv_columns(tmp_path / "c.csv", ["x", "P"], [0.0, 1.0], [0.5, 0.5])
    assert path.read_text().splitlines()[0] == "x,P"


def test_float_format_is_shortest_round_trip():
    for v in (0.1, 1.0 / 3.0, -2.5e-308, 6283.185307179586):
        assert float(format_float(v)) == v


# ---------------------------------------------------------------------------
# heatmaps
# ---------------------------------------------------------------------------

def _field_from(values, p_axis=None):
    values = np.asarray(values, dtype=float)
    n_x, n_p = values.shape
    grid = PhaseSpaceGrid(0.0, 1.0, n_x, -1.0, 1.0, n_p)
    return WignerField(grid=grid, values=values, time=0.0, method="fourier")


def _pixels(raw):
    # P6 header is three text lines, then packed RGB bytes
    idx = 0
    for _ in range(3):
        idx = raw.index(b"\n", idx) + 1
    return np.frombuffer(raw[idx:], dtype=np.uint8).reshape(-1, 3)


def test_heatmap_zero_field_all_white():
    raw = heatmap_bytes(_field_from(np.zeros((4, 3))))
    assert raw.startswith(b"P6\n4 3\n255\n")
    assert np.all(_pixels(raw) == 255)


def test_heatmap_diverging_channels():
    raw = heatmap_bytes(_field_from(np.array([[1.0, -1.0, 0.5],
                                              [1.0, -1.0, 0.5]])))
    px = _pixels(raw)
    # rows are emitted top-down = p descending: 0.5, -1.0, 1.0
    assert list(px[0]) == [255, 128, 128]      # +A/2 -> half red
    assert list(px[2]) == [0, 0, 255]          # -A -> saturated blue
    assert list(px[4]) == [255, 0, 0]          # +A -> saturated red


def test_heatmap_gaussian_has_no_blue(gaussian_field):
    px = _pixels(heatmap_bytes(gaussian_field))
    assert not np.any(px[:, 2] > px[:, 0])


def test_heatmap_split_packet_blue_between_wells(cat_field_quarter):
    from doublewell import crop_momentum
    sub = crop_momentum(cat_field_quarter, 3.0)
    raw = heatmap_bytes(sub)
    px = _pixels(raw).reshape(sub.grid.n_p, sub.grid.n_x, 3)
    xs = sub.grid.x_axis()
    central = np.abs(xs) < 2.0
    blue = px[:, central, 2].astype(int) > px[:, central, 0].astype(int)
    assert np.any(blue)


# ---------------------------------------------------------------------------
# emission golden digests
# ---------------------------------------------------------------------------

def _golden_values(seed, n, octaves=41):
    # 64-bit LCG mapped to doubles in [-2^k, 2^k) by exact operations (53-bit
    # integer, power-of-two scales, k drawn from `octaves` values), so every
    # platform feeds the writers the same bits
    state, out = seed, []
    for _ in range(n):
        state = (6364136223846793005 * state + 1442695040888963407) % 2 ** 64
        mantissa = (state >> 11) - 2 ** 52
        out.append(mantissa / 2.0 ** 52 * 2.0 ** (state % octaves - octaves * 3 // 4))
    return np.array(out)


GOLDEN_SPECIALS = [0.0, -0.0, 0.1, 1.0 / 3.0, 1e-300, 1.5e300, 5e-324, 2.0 ** 53]


def test_emit_golden_digests(tmp_path):
    # repr is exact and every input is platform independent, so these
    # digests pin the emitted bytes everywhere
    cols = _golden_values(1, 3 * 40).reshape(3, 40)
    cols[:, :len(GOLDEN_SPECIALS)] = GOLDEN_SPECIALS
    path = write_csv_columns(tmp_path / "cols.csv", ["x", "a", "b"], *cols)
    matrix = _golden_values(2, 16 * 12).reshape(16, 12)
    matrix[0, :len(GOLDEN_SPECIALS)] = GOLDEN_SPECIALS
    mpath = write_csv_matrix(tmp_path / "m.csv", "x", "p", _golden_values(3, 16),
                             _golden_values(4, 12), matrix)
    field = _field_from(_golden_values(5, 16 * 12, octaves=1).reshape(16, 12))
    digests = [hashlib.sha256(data).hexdigest() for data in
               (path.read_bytes(), mpath.read_bytes(), heatmap_bytes(field))]
    assert digests == [
        "2d2efb146f6282b148f2f83b37488151c8b55fdd37dfcfe146d3c3b84bba3a50",
        "3bc8eb92762685ad7efbb6e24d4ab7fa91f9dc14aed211f92b9cfa40b6450ca3",
        "be975f02cf46cc5742176cc799d72709fcecff0ff25bbbbb66933b159713b1a4",
    ]


# ---------------------------------------------------------------------------
# scenario runs and the CLI
# ---------------------------------------------------------------------------

def test_run_scenario_emits_expected_files(tmp_path):
    manifest = run_scenario(SCENARIO_DIR / "fig4_symmetric.scn", tmp_path / "out")
    names = set(manifest)
    for i in range(3):
        assert f"fig4_symmetric_wigner_t{i}.csv" in names
        assert f"fig4_symmetric_wigner_t{i}.ppm" in names
        assert f"fig4_symmetric_marginal_x_t{i}.csv" in names
        assert f"fig4_symmetric_marginal_p_t{i}.csv" in names
    assert (tmp_path / "out" / "manifest.txt").exists()


def test_run_scenario_fringe_table_monotone(tmp_path):
    run_scenario(SCENARIO_DIR / "fig5_asymmetric.scn", tmp_path / "out")
    lines = (tmp_path / "out" / "fig5_asymmetric_fringes.csv").read_text().splitlines()
    assert lines[0] == "delta_e,time,x0,spacing"
    spacing = [float(line.split(",")[3]) for line in lines[1:]]
    assert spacing == sorted(spacing)
    assert len(spacing) == 3


def test_plot_compat_scales_momentum_marginal(tmp_path):
    base = """
well.kind = symmetric
well.e0 = -1
well.e1 = -0.999
theta = pi/4
times = 0
outputs = marginals
"""
    scn_plain = parse_scenario_text(base, name="plain")
    scn_compat = parse_scenario_text(base + "plot_compat = true\n", name="compat")
    run_scenario(scn_plain, tmp_path / "a")
    run_scenario(scn_compat, tmp_path / "b")
    read = lambda p: np.array([
        [float(v) for v in line.split(",")]
        for line in Path(p).read_text().splitlines()[1:]])
    plain = read(tmp_path / "a" / "plain_marginal_p_t0.csv")
    compat = read(tmp_path / "b" / "compat_marginal_p_t0.csv")
    assert np.array_equal(plain[:, 0], compat[:, 0])
    assert np.array_equal(compat[:, 1], plain[:, 1] / 3.0)
    header = (tmp_path / "b" / "compat_marginal_p_t0.csv").read_text().splitlines()[0]
    assert header == "p,Ptilde"


def test_bench_scenario_outputs(tmp_path):
    from doublewell import SpectralBenchReport
    run_scenario(SCENARIO_DIR / "bench_symmetric.scn", tmp_path / "out")
    report = (tmp_path / "out" / "bench_symmetric_bench_report.txt").read_text()
    assert "exact_e0=-1.0\n" in report
    assert "exact_e1=-0.9\n" in report
    conv = (tmp_path / "out" / "bench_symmetric_bench_convergence.csv").read_text()
    rows = [line.split(",") for line in conv.splitlines()[1:]]
    err0 = [float(r[2]) for r in rows]
    assert err0 == sorted(err0, reverse=True)
    # the emitted key=value text reconstructs the report losslessly
    mapping = dict(line.split("=", 1) for line in report.splitlines())
    again = SpectralBenchReport.from_mapping(mapping)
    assert again.as_mapping() == mapping


def test_bench_empty_ladder_rejected(tmp_path):
    scn = parse_scenario_text(MINIMAL.replace("potential", "bench"), name="x")
    scn.bench_ladder = []
    with pytest.raises(ScenarioValidationError, match="ladder"):
        run_scenario(scn, tmp_path / "out")


def test_cli_verbs_write_files(tmp_path):
    out = str(tmp_path / "v")
    assert main(["potential", "--well", "symmetric", "--e0", "-1", "--e1", "-0.9",
                 "--out-dir", out]) == 0
    assert main(["states", "--well", "asymmetric", "--e0", "0", "--alpha", "0.9",
                 "--beta", "1", "--delta-e", "1", "--out-dir", out]) == 0
    assert main(["evolve", "--well", "symmetric", "--e0", "-1", "--e1", "-0.9",
                 "--times", "0,T/4", "--out-dir", out]) == 0
    assert (tmp_path / "v" / "potential.csv").exists()
    assert (tmp_path / "v" / "states.csv").exists()
    assert (tmp_path / "v" / "evolve_t1.csv").exists()


def test_cli_phase_space_verbs(tmp_path):
    out = str(tmp_path / "w")
    well = ["--well", "asymmetric", "--e0", "0", "--alpha", "0.9",
            "--beta", "1", "--delta-e", "1", "--grid-nx", "64",
            "--grid-ny", "512"]
    assert main(["wigner", *well, "--times", "T/4", "--out-dir", out]) == 0
    assert main(["marginals", *well, "--times", "T/4", "--out-dir", out]) == 0
    assert main(["negativity", *well, "--times", "0,T/4", "--out-dir", out]) == 0
    assert main(["fringes", *well, "--times", "T/4", "--out-dir", out]) == 0
    assert main(["bench", "--well", "symmetric", "--e0", "-1", "--e1", "-0.9",
                 "--ladder", "401,801", "--out-dir", out]) == 0
    for name in ("wigner_t0.csv", "wigner_t0.ppm", "marginal_x_t0.csv",
                 "negativity.csv", "fringes.csv", "bench_report.txt"):
        assert (tmp_path / "w" / name).exists()


def test_cli_reports_errors(tmp_path, capsys):
    code = main(["potential", "--well", "symmetric", "--e0", "-1", "--e1", "1",
                 "--out-dir", str(tmp_path / "e")])
    assert code == 1
    assert "E1 < 0" in capsys.readouterr().err


def test_cli_scenario_round(tmp_path):
    assert main(["scenario", str(SCENARIO_DIR / "fig2_symmetric.scn"),
                 "--out-dir", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "fig2_symmetric_states.csv").exists()


# ---------------------------------------------------------------------------
# verbs are one-output scenarios
# ---------------------------------------------------------------------------

SYM_ARGS = ["--well", "symmetric", "--e0", "-1", "--e1", "-0.9"]
SYM_TEXT = "well.kind = symmetric\nwell.e0 = -1\nwell.e1 = -0.9\n"
ASYM_ARGS = ["--well", "asymmetric", "--e0", "0", "--alpha", "0.9",
             "--beta", "1", "--delta-e", "1"]
ASYM_TEXT = ("well.kind = asymmetric\nwell.e0 = 0\nwell.alpha = 0.9\n"
             "well.beta = 1\nwell.delta_e = 1\n")
PHASE_ARGS = [*ASYM_ARGS, "--grid-nx", "64", "--grid-ny", "512"]
PHASE_TEXT = ASYM_TEXT + "grid.n_x = 64\ngrid.n_y = 512\n"

# the argv of test_cli_verbs_write_files / test_cli_phase_space_verbs and
# the scenario text that means the same
VERB_CASES = {
    "potential": (SYM_ARGS, SYM_TEXT),
    "states": (ASYM_ARGS, ASYM_TEXT),
    "evolve": ([*SYM_ARGS, "--times", "0,T/4"], SYM_TEXT + "times = 0,T/4\n"),
    "wigner": ([*PHASE_ARGS, "--times", "T/4"], PHASE_TEXT + "times = T/4\n"),
    "marginals": ([*PHASE_ARGS, "--times", "T/4"], PHASE_TEXT + "times = T/4\n"),
    "negativity": ([*PHASE_ARGS, "--times", "0,T/4"],
                   PHASE_TEXT + "times = 0,T/4\n"),
    "fringes": ([*PHASE_ARGS, "--times", "T/4"], PHASE_TEXT + "times = T/4\n"),
    "bench": ([*SYM_ARGS, "--ladder", "401,801"],
              SYM_TEXT + "bench.ladder = 401,801\n"),
}


@pytest.mark.parametrize("verb", list(VERB_CASES))
def test_verb_matches_its_scenario_text(verb, tmp_path):
    args, text = VERB_CASES[verb]
    assert main([verb, *args, "--out-dir", str(tmp_path / "verb")]) == 0
    scn = parse_scenario_text(text + f"outputs = {verb}\n", name="")
    manifest = run_scenario(scn, tmp_path / "text")
    assert ((tmp_path / "verb" / "manifest.txt").read_bytes()
            == (tmp_path / "text" / "manifest.txt").read_bytes())
    # unprefixed names, and every written file is in the manifest
    assert not any(name.startswith("_") for name in manifest)
    written = {p.name for p in (tmp_path / "verb").iterdir()}
    assert written == set(manifest) | {"manifest.txt"}


@pytest.mark.parametrize("args,flag", [
    (["bench", *SYM_ARGS, "--ladder", "751,abc"], "--ladder"),
    (["bench", *SYM_ARGS, "--ladder", "8"], "--ladder"),
    (["potential", *SYM_ARGS, "--grid-nx", "1"], "--grid-nx"),
    (["wigner", *SYM_ARGS, "--grid-ny", "1000"], "--grid-ny"),
    (["wigner", *SYM_ARGS, "--p-max", "nan"], "--p-max"),
    (["wigner", *SYM_ARGS, "--grid-nx", "2", "--grid-ny", "67108864"],
     "--grid-nx, --grid-ny, --times"),
    (["states", "--well", "symmetric", "--e0", "nan", "--e1", "-0.9"], "--e0"),
    (["states", *SYM_ARGS, "--alpha", "0.9"], "--alpha"),
    (["states", "--well", "symmetric", "--e0", "-1"], "--e1"),
], ids=["ladder-token", "ladder-rung", "grid-nx", "grid-ny", "p-max",
        "block-budget", "e0-nan", "alpha-on-symmetric", "missing-e1"])
def test_cli_bad_input_fails_at_the_parser(args, flag, tmp_path, capsys):
    out = tmp_path / "bad"
    assert main([*args, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()


def test_parse_refuses_blocks_above_budget():
    text = MINIMAL + "grid.n_x = 2\ngrid.n_y = 67108864\n"
    parse_scenario_text(text)
    with pytest.raises(ScenarioValidationError,
                       match="grid.n_x, grid.n_y, times: a column block"):
        parse_scenario_text(text.replace("outputs = potential", "outputs = wigner"))


def test_scenario_evolve_output(tmp_path, monkeypatch):
    from doublewell import SuperpositionState, WellModel, emit
    written = []
    write = emit.write_csv_columns

    def recording(path, *args):
        written.append(Path(path).name)
        return write(path, *args)
    monkeypatch.setattr(emit, "write_csv_columns", recording)
    path = tmp_path / "ew.scn"
    path.write_text(PHASE_TEXT + "times = 0,T/4\noutputs = evolve, wigner\n")
    manifest = run_scenario(path, tmp_path / "out")
    assert sorted(n for n in manifest if "evolve" in n) == [
        "ew_evolve_t0.csv", "ew_evolve_t1.csv"]
    assert written.count("ew_times.csv") == 1
    assert {"ew_wigner_t0.csv", "ew_wigner_t1.csv", "ew_times.csv"} <= set(manifest)
    # each evolve file is |Psi(x, t)|^2 on the sampled axis, bit for bit
    scn = parse_scenario(path)
    state = SuperpositionState(WellModel.build(scn.well_params()), scn.theta)
    times = [spec.resolve(state.beat_period()) for spec in scn.times]
    for i, t in enumerate(times):
        lines = (tmp_path / "out" / f"ew_evolve_t{i}.csv").read_text().splitlines()
        assert lines[0] == "x,P"
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(table[:, 1], state.density(table[:, 0], t))
