"""Scenario parsing, file emission, and CLI determinism."""

import hashlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from doublewell import (
    InvalidGrid,
    InvalidParameters,
    NonFinite,
    ScenarioParseError,
    ScenarioValidationError,
    SymmetricWellParams,
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
    write_text,
)
from doublewell import scenario as scenario_module
from doublewell import wellcore
from doublewell.scenario import MAX_GRID_POINTS, MAX_SCENARIO_BYTES, WRITE_BUDGET_BYTES, Run
from doublewell.specbench import MAX_LATTICE_POINTS
from doublewell.wigner import PhaseSpaceGrid, WignerField
from conftest import state_masses

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
    assert scn.runs == [Run(None, "mini_", SymmetricWellParams(e0=-1.0, e1=-0.9))]
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


@pytest.mark.parametrize("name", [
    "../../escape", "sub/name", "..", ".", "a\\b",
    pytest.param("nul\0byte", id="nul-byte"),
    pytest.param("n" * 245, id="245-bytes"),
    pytest.param("\u00e9" * 101, id="202-utf8-bytes"),
])
def test_parse_rejects_name_outside_out_dir(name, tmp_path):
    with pytest.raises(ScenarioParseError, match="plain file stem"):
        parse_scenario_text(MINIMAL + f"name = {name}\n")
    with pytest.raises(ScenarioParseError, match="plain file stem"):
        parse_scenario_text(MINIMAL, name=name)


def test_longest_name_writes_every_file_of_a_sweep(tmp_path):
    # a name of 200 UTF-8 bytes with a sweep prefix still makes file names
    name = "\u00e9" * 99 + "nn"
    text = ("well.kind = symmetric\nwell.e0 = -1\n"
            "sweep.delta_e = 0.1, 0.000123457\nbench.ladder = 16,32\n"
            "outputs = bench\n")
    manifest = run_scenario(parse_scenario_text(text, name=name), tmp_path)
    assert f"{name}_dE0.000123457_bench_convergence.csv" in manifest
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*manifest, "manifest.txt"])


def test_run_scenario_rejects_bad_thread_count(tmp_path):
    scn = parse_scenario_text(MINIMAL, name="mini")
    with pytest.raises(InvalidParameters, match="threads"):
        run_scenario(scn, tmp_path / "out", threads=0)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-2", "two", "2"])
def test_cli_rejects_bad_thread_flag(value, tmp_path, capsys):
    # there is no --threads flag, so any value is an unrecognised argument
    with pytest.raises(SystemExit) as exc:
        main(["scenario", str(SCENARIO_DIR / "fig2_symmetric.scn"),
              "--out-dir", str(tmp_path / "s"), "--threads", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --threads {value}" in capsys.readouterr().err
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
    # a grid too big for the held Wigner frames fails at parse time, and
    # only when frames are held, as wigner holds them
    text = MINIMAL + grid + "\n"
    parse_scenario_text(text)
    with pytest.raises(ScenarioValidationError,
                       match="grid.n_x, grid.n_y, times: .*byte budget"):
        parse_scenario_text(text.replace("outputs = potential", "outputs = wigner"))


def test_parse_budgets_fringes_alone_as_one_column(tmp_path):
    # fringes alone transforms one column per frame, so 600 times fit on
    # 256 x 1024; wigner would hold 600 frames and is refused
    times = ",".join(f"{k / 600!r}T" for k in range(600))
    text = MINIMAL.replace("outputs = potential", "outputs = fringes") + f"times = {times}\n"
    scn = parse_scenario_text(text, name="f")
    assert (scn.n_x, scn.n_y, len(scn.times)) == (256, 1024, 600)
    run_scenario(scn, tmp_path / "out")
    assert len((tmp_path / "out" / "f_fringes.csv").read_text().splitlines()) == 601
    with pytest.raises(ScenarioValidationError,
                       match="grid.n_x, grid.n_y, times: 600 frame.*byte budget"):
        parse_scenario_text(text.replace("= fringes", "= fringes, wigner"))


def test_dense_negativity_curve_streams(tmp_path):
    # negativity and marginals keep 2 (n_x + n_y) doubles per frame, not the
    # frame, so a 600-time curve on 256 x 1024 (1.2 GiB of frames) parses,
    # and a negativity run holds its per-x volumes and one block's scratch
    times = ",".join(f"{k / 600!r}T" for k in range(600))
    text = (MINIMAL.replace("outputs = potential", "outputs = negativity")
            + f"times = {times}\n")
    parse_scenario_text(text.replace("= negativity", "= marginals"))
    scn = parse_scenario_text(text, name="beat")
    assert (scn.n_x, scn.n_y, len(scn.times)) == (256, 1024, 600)
    tracemalloc.start()
    try:
        run_scenario(scn, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the doubles per frame the budget counts, plus a block
    assert peak < 8 * 600 * 2 * (256 + 1024) + (2 << 20)
    lines = (tmp_path / "out" / "beat_negativity.csv").read_text().splitlines()
    assert len(lines) == 601


def test_parse_budgets_the_bytes_a_run_writes(tmp_path, capsys):
    # evolve at the largest grid.n_x and 100,000 times would write ~11 TB;
    # one time parses, and the verb names its flags and writes nothing
    times = ",".join(["0"] * 100000)
    text = (MINIMAL.replace("outputs = potential", "outputs = evolve")
            + f"grid.n_x = {MAX_GRID_POINTS}\n")
    parse_scenario_text(text + "times = 0\n")
    with pytest.raises(ScenarioValidationError,
                       match="grid.n_x, grid.n_y, times: .* above the "
                             f"{WRITE_BUDGET_BYTES}-byte budget for written"):
        parse_scenario_text(text + f"times = {times}\n")
    out = tmp_path / "bad"
    assert main(["evolve", "--well", "symmetric", "--e0", "-1", "--e1", "-0.9",
                 "--grid-nx", str(MAX_GRID_POINTS), "--times", times,
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --grid-nx, --grid-ny, --times: ")
    assert not out.exists()
    # the estimate bounds what the per-time files of a run actually take
    scn = parse_scenario_text(
        PHASE_TEXT.replace("well.delta_e = 1\n", "sweep.delta_e = 0.5,1\n")
        + "times = 0,T/4\n"
        "outputs = potential, evolve, wigner, marginals, negativity, fringes\n",
        name="w")
    manifest = run_scenario(scn, tmp_path / "out")
    per_time = sum((tmp_path / "out" / name).stat().st_size for name in manifest
                   if not name.endswith("potential.csv"))
    assert 0 < per_time <= scenario_module._written_bytes(scn)


@pytest.mark.parametrize("ladder", ["8", "-3,0", "751,15"])
def test_parse_rejects_small_bench_rungs(ladder):
    with pytest.raises(ScenarioValidationError, match="bench.ladder: need >= 16"):
        parse_scenario_text(MINIMAL + f"bench.ladder = {ladder}\n")
    assert parse_scenario_text(MINIMAL + "bench.ladder = 16\n").bench_ladder == [16]


@pytest.mark.parametrize("key,bound,value", [
    ("bench.ladder", MAX_LATTICE_POINTS, "751,4000000000"),
    ("grid.n_x", MAX_GRID_POINTS, "10000000000"),
], ids=["ladder", "n_x"])
def test_parse_refuses_unbounded_lattices(key, bound, value):
    # the bound itself parses; above it the key is refused before any
    # lattice is allocated (one array of the requested points is 32 GB)
    parse_scenario_text(MINIMAL + f"{key} = {bound}\n")
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioValidationError, match=f"{key}: need .*<= {bound}"):
            parse_scenario_text(MINIMAL + f"{key} = {value}\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_bounds_theta_as_the_state_does():
    # pi/2 parses however it is spelled; a hair above it fails at the
    # parser with the key, not in SuperpositionState during the run
    for token in ("pi/2", "3*pi/6", "2*pi/4"):
        assert parse_scenario_text(MINIMAL + f"theta = {token}\n").theta == math.pi / 2
    with pytest.raises(ScenarioValidationError, match="theta: must lie in"):
        parse_scenario_text(MINIMAL + "theta = 1.5707963267953\n")


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


def test_table_refusal_names_file_and_first_non_finite_column(tmp_path):
    with pytest.raises(NonFinite, match=r"^c\.csv: .* in column b$"):
        write_csv_columns(tmp_path / "c.csv", ["a", "b", "c"],
                          [1.0, 2.0], [3.0, math.inf], [math.nan, 0.0])
    with pytest.raises(NonFinite, match=r"^m\.csv: .* in column 1\.0$"):
        write_csv_matrix(tmp_path / "m.csv", "x", "p", [0.1, 0.2], [-1.0, 1.0],
                         [[1.0, 2.0], [3.0, math.nan]])
    assert not any(tmp_path.iterdir())


def test_write_text_keeps_line_endings(tmp_path):
    text = "a=1\nb=\u00e9\n"
    assert write_text(tmp_path / "r.txt", text).read_bytes() == text.encode("utf-8")


def test_float_format_is_shortest_round_trip():
    for v in (0.1, 1.0 / 3.0, -2.5e-308, 6283.185307179586):
        assert float(format_float(v)) == v


def _doubles_of_every_notation(seed):
    # seeded finite doubles of both signs: random bit patterns, every power
    # of ten (repr's notation turns at 1e-5, 1e-4 and 1e16) and its
    # neighbour, normal draws over 60 decades, the 1e-5 decade, subnormals,
    # zero and the extremes; 10.00001 and 100.00001 hold the digits of the
    # 1e-5 decade inside a number
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, 40_000, dtype=np.uint64).view(np.float64)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-30.0, 30.0, 20_000)
    decade = rng.uniform(1e-5, 1e-4, 3_000)
    subnormal = rng.integers(1, 2 ** 52, 2_000, dtype=np.int64).view(np.float64)
    edges = np.array([0.0, 1.5e-5, 10.00001, 100.00001, 5e-324, 1.7976931348623157e308])
    values = np.concatenate([bits, powers, np.nextafter(powers, 0.0), scaled,
                             decade, subnormal, edges])
    values = values[np.isfinite(values)]
    values = np.concatenate([values, -values])
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_table_rows_are_format_float_joined(width):
    from doublewell import emit
    values = _doubles_of_every_notation(width)
    table = values[:values.size // width * width].reshape(-1, width)
    headers = [f"c{j}" for j in range(width)]
    expected = "".join(",".join(map(format_float, row)) + "\n" for row in table)
    assert table.size > 2 * emit._CHUNK_VALUES
    assert (b"".join(emit._table_chunks(headers, table))
            == (",".join(headers) + "\n" + expected).encode("utf-8"))


def test_table_without_rows_is_its_header(tmp_path):
    path = write_csv_columns(tmp_path / "empty.csv", ["x", "P"], [], [])
    assert path.read_bytes() == b"x,P\n"


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


def test_momentum_marginal_is_written_on_the_wigner_band_axis(tmp_path):
    # every shipped scenario that writes both files writes them on one p axis
    checked = 0
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        if not {"wigner", "marginals"} <= set(parse_scenario(path).outputs):
            continue
        out = tmp_path / path.stem
        run_scenario(path, out)
        for grid in sorted(out.glob("*_wigner_t*.csv")):
            marginal = grid.with_name(grid.name.replace("_wigner_", "_marginal_p_"))
            header = grid.read_text().splitlines()[0].split(",")[1:]
            column = [line.split(",")[0]
                      for line in marginal.read_text().splitlines()[1:]]
            assert [float(p) for p in header] == [float(p) for p in column]
            checked += 1
    assert checked == 6


def test_marginals_alone_write_the_bytes_they_write_beside_wigner(tmp_path):
    text = PHASE_TEXT + "times = 0,T/4\ngrid.p_max = 2.5\n"
    run_scenario(parse_scenario_text(text + "outputs = marginals\n", name="m"),
                 tmp_path / "alone")
    run_scenario(parse_scenario_text(text + "outputs = wigner,marginals\n",
                                     name="m"), tmp_path / "both")
    for i in range(2):
        name = f"m_marginal_p_t{i}.csv"
        assert ((tmp_path / "alone" / name).read_bytes()
                == (tmp_path / "both" / name).read_bytes())


def test_marginals_refuse_a_band_of_fewer_than_two_momenta(tmp_path):
    # below half a step the band keeps the sample nearest p = 0 or none,
    # as a wigner run with that band already refuses
    scn = parse_scenario_text(PHASE_TEXT + "times = 0\noutputs = marginals\n",
                              name="m")
    scn.p_max = 1e-9
    with pytest.raises(InvalidGrid, match="fewer than 2 momentum rows"):
        run_scenario(scn, tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


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
    (["wigner", *SYM_ARGS, "--theta", "1.5707963267953"], "--theta"),
    (["bench", *SYM_ARGS, "--ladder", "751,4000000000"], "--ladder"),
    (["potential", *SYM_ARGS, "--grid-nx", "10000000000"], "--grid-nx"),
    (["states", "--well", "symmetric", "--e0", "-0.5", "--e1", "-0.9"], "--e1"),
    (["states", "--well", "asymmetric", "--e0", "0", "--alpha", "0.9",
      "--beta", "1", "--delta-e", "-1"], "--delta-e"),
    (["potential", "--well", "asymmetric", "--e0", "0", "--alpha", "1",
      "--beta", "1", "--delta-e", "1"], "--alpha"),
    # e0 + delta_e drops the splitting (e1 - e0 = 0) or rounds it (0.125)
    (["negativity", "--well", "asymmetric", "--e0", "1e16", "--alpha", "0.5",
      "--beta", "1", "--delta-e", "1"], "--delta-e"),
    (["fringes", "--well", "asymmetric", "--e0", "1e15", "--alpha", "0.9",
      "--beta", "1", "--delta-e", "0.1", "--times", "T/4"], "--delta-e"),
], ids=["ladder-token", "ladder-rung", "grid-nx", "grid-ny", "p-max",
        "block-budget", "e0-nan", "alpha-on-symmetric", "missing-e1",
        "theta-above-half-pi", "ladder-unbounded", "grid-nx-unbounded",
        "e1-below-e0", "delta-e-negative", "alpha-one", "splitting-lost",
        "splitting-rounded"])
def test_cli_bad_input_fails_at_the_parser(args, flag, tmp_path, capsys):
    out = tmp_path / "bad"
    assert main([*args, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()


@pytest.mark.parametrize("well,key,rule", [
    ("well.kind = symmetric\nwell.e0 = -0.5\nwell.e1 = -0.9\n", "well.e1",
     "symmetric well needs E0 < E1"),
    (ASYM_TEXT.replace("well.delta_e = 1", "well.delta_e = -1"), "well.delta_e",
     "delta_e must be > 0"),
    ("well.kind = symmetric\nwell.e0 = -1\nsweep.delta_e = 0.5, 2\n",
     "sweep.delta_e", "symmetric well needs E1 < 0"),
], ids=["e1", "delta-e", "sweep"])
def test_cli_names_the_key_of_a_refused_splitting(well, key, rule, tmp_path, capsys):
    scn = tmp_path / "split.scn"
    scn.write_text(well + "outputs = potential\n")
    out = tmp_path / "out"
    assert main(["scenario", str(scn), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: {rule}, got ")
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["1", "-1", "1.5"])
def test_parse_refuses_an_alpha_whose_closed_forms_never_decay(alpha):
    with pytest.raises(ScenarioValidationError, match=re.escape(
            f"well.alpha: must lie in (-1, 1), got {float(alpha)}")):
        parse_scenario_text(ASYM_TEXT.replace("well.alpha = 0.9",
                                              f"well.alpha = {alpha}")
                            + "outputs = potential\n")


def test_parse_names_a_sweep_splitting_lost_to_rounding():
    text = ASYM_TEXT.replace("well.e0 = 0", "well.e0 = 1e16").replace(
        "well.delta_e = 1", "sweep.delta_e = 4, 1")
    with pytest.raises(ScenarioValidationError, match=re.escape(
            "sweep.delta_e: delta_e 1.0 is lost to rounding next to e0 1e+16: "
            "e1 - e0 is 0.0")):
        parse_scenario_text(text + "outputs = potential\n")


@pytest.mark.parametrize("values,first,second", [
    ("0.1000001, 0.1000002", "0.1000001", "0.1000002"),
    ("0.25, 0.5, 0.25", "0.25", "0.25"),
], ids=["same-6-digits", "duplicate"])
def test_cli_refuses_sweep_values_sharing_a_file_prefix(values, first, second,
                                                        tmp_path, capsys):
    # each run's files carry its value to 6 significant digits, so the
    # second run would overwrite the first's files
    scn = tmp_path / "c.scn"
    scn.write_text("name = c\nwell.kind = symmetric\nwell.e0 = -1\n"
                   f"sweep.delta_e = {values}\noutputs = potential\n")
    out = tmp_path / "out"
    assert main(["scenario", str(scn), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: sweep.delta_e: {first} and {second} ")
    assert not out.exists()


@pytest.mark.parametrize("beta", ["1e-300", "1e200"])
def test_cli_refuses_a_beta_whose_square_is_not_a_double(beta, tmp_path, capsys):
    # the envelope divides by beta**2, which underflows to 0 or overflows
    out = tmp_path / "beta"
    assert main(["potential", "--well", "asymmetric", "--e0", "-1",
                 "--alpha", "0.2", "--beta", beta, "--delta-e", "1",
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --beta: ")
    assert "Traceback" not in err
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


@pytest.mark.parametrize("args,plain", [
    (["--e0", "-1e0", "--e1", "-9e-1"], ["--e0", "-1.0", "--e1", "-0.9"]),
    (["--e0=-1e0", "--e1=-9e-1"], ["--e0", "-1.0", "--e1", "-0.9"]),
    (["--e1", "-9e-1", "--e0", "-1e0"], ["--e0", "-1.0", "--e1", "-0.9"]),
    ([*ASYM_ARGS, "--e0", "-1e-3"], [*ASYM_ARGS, "--e0", "-0.001"]),
], ids=["exponent", "equals", "reordered", "small-exponent"])
def test_cli_reads_negative_exponent_values(args, plain, tmp_path):
    # argparse alone takes -1e0 for a flag and exits 2
    well = [] if args[0] == "--well" else ["--well", "symmetric"]
    assert main(["potential", *well, *args, "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["potential", *well, *plain, "--out-dir", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "manifest.txt").read_bytes()
            == (tmp_path / "b" / "manifest.txt").read_bytes())


def test_cli_value_flag_does_not_take_a_following_flag(tmp_path, capsys):
    # only a token that parses as a float joins the flag before it
    with pytest.raises(SystemExit) as exc:
        main(["potential", "--well", "symmetric", "--e1", "--e0", "-1e0",
              "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --e1: expected one argument" in capsys.readouterr().err


def test_cli_value_flag_takes_a_negative_comma_list(tmp_path):
    # argparse alone takes -1,2 for a flag and exits 2; each item parses as
    # a float, so it joins --times as --times=-1,2 does
    common = ["negativity", "--well", "symmetric", "--e0", "-1", "--e1", "-0.9"]
    assert main([*common, "--times", "-1,2", "--out-dir", str(tmp_path / "a")]) == 0
    assert main([*common, "--times=-1,2", "--out-dir", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "manifest.txt").read_bytes()
            == (tmp_path / "b" / "manifest.txt").read_bytes())


# ---------------------------------------------------------------------------
# one emission path
# ---------------------------------------------------------------------------

def test_every_artifact_reaches_disk_through_one_writer(tmp_path, monkeypatch):
    from doublewell import emit
    from doublewell.scenario import OUTPUT_KINDS
    written = []
    write = emit._write

    def recording(path, data):
        written.append(Path(path).name)
        return write(path, data)
    monkeypatch.setattr(emit, "_write", recording)
    text = (PHASE_TEXT + "times = 0,T/4\nbench.ladder = 401,801\n"
            f"outputs = {', '.join(OUTPUT_KINDS)}\n")
    manifest = run_scenario(parse_scenario_text(text, name="all"), tmp_path / "out")
    assert sorted(written) == sorted([*manifest, "manifest.txt"])
    assert sorted(written) == sorted(p.name for p in (tmp_path / "out").iterdir())


def test_write_failing_part_way_leaves_no_file(tmp_path):
    from doublewell import emit

    def chunks():
        yield b"x,P\n"
        raise OSError("disk full")
    path = tmp_path / "partial.csv"
    with pytest.raises(OSError, match="disk full"):
        emit._write(path, chunks())
    assert not path.exists()
    # a table streams in chunks of rows, so it fails part-way the same way
    table = np.ones((3 * emit._CHUNK_VALUES, 1))
    good = emit._table_chunks(["x"], table)

    def failing():
        yield next(good)
        yield next(good)
        raise OSError("disk full")
    with pytest.raises(OSError):
        emit._write(path, failing())
    assert not path.exists()
    emit._write(path, emit._table_chunks(["x"], table))
    assert path.read_bytes() == b"x\n" + b"1.0\n" * table.shape[0]


def test_write_whose_open_fails_leaves_the_file(tmp_path, monkeypatch):
    from doublewell import emit
    path = tmp_path / "earlier.csv"
    path.write_bytes(b"x,P\n1.0,2.0\n")

    def refusing(target, mode="r", *args, **kwargs):
        if Path(target) == path:
            raise PermissionError(13, "Permission denied", str(target))
        return open(target, mode, *args, **kwargs)
    monkeypatch.setattr(emit, "open", refusing, raising=False)
    with pytest.raises(PermissionError):
        emit.write_text(path, "x,P\n")
    assert path.read_bytes() == b"x,P\n1.0,2.0\n"
    # the open of any other file goes through
    assert emit.write_text(tmp_path / "other.txt", "ok\n").read_text() == "ok\n"


def _sparse_file(path, size):
    with open(path, "wb") as f:
        f.truncate(size)
    return path


def test_parse_reads_a_scenario_file_up_to_the_cap(tmp_path):
    # a comment pads a valid scenario to exactly the cap
    text = MINIMAL.encode()
    padded = tmp_path / "padded.scn"
    padded.write_bytes(text + b"#" * (MAX_SCENARIO_BYTES - len(text) - 1) + b"\n")
    assert padded.stat().st_size == MAX_SCENARIO_BYTES
    assert parse_scenario(padded).outputs == ["potential"]
    over = _sparse_file(tmp_path / "over.scn", MAX_SCENARIO_BYTES + 1)
    with pytest.raises(ScenarioParseError,
                       match=f"over.scn: longer than {MAX_SCENARIO_BYTES} bytes"):
        parse_scenario(over)


def test_parse_reads_no_more_than_the_cap(tmp_path):
    huge = _sparse_file(tmp_path / "huge.scn", 8 * MAX_SCENARIO_BYTES)
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioParseError, match="longer than"):
            parse_scenario(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * MAX_SCENARIO_BYTES


def _bad_paths(tmp_path):
    # (argv, file whose bytes must survive, text the message holds) per
    # unusable path
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"not a directory\n")
    latin = tmp_path / "latin.scn"
    latin.write_bytes(b"name = caf\xe9\n" + MINIMAL.encode())
    over = _sparse_file(tmp_path / "over.scn", MAX_SCENARIO_BYTES + 1)
    potential = ["potential", *SYM_ARGS]
    out = ["--out-dir", str(tmp_path / "o")]
    return {
        "out-dir-is-a-file": ([*potential, "--out-dir", str(blocker)], blocker,
                              str(blocker)),
        "out-dir-under-a-file": ([*potential, "--out-dir", str(blocker / "sub")],
                                 blocker, str(blocker)),
        "missing-scenario": (["scenario", str(tmp_path / "missing.scn"), *out],
                             None, "missing.scn"),
        "scenario-is-a-directory": (["scenario", str(tmp_path), *out], None,
                                    str(tmp_path)),
        "scenario-not-utf8": (["scenario", str(latin), *out], latin,
                              f"{latin}: not UTF-8 text"),
        "scenario-over-the-cap": (["scenario", str(over), *out], over,
                                  f"{over}: longer than {MAX_SCENARIO_BYTES} bytes"),
    }


@pytest.mark.parametrize("case", ["out-dir-is-a-file", "out-dir-under-a-file",
                                  "missing-scenario", "scenario-is-a-directory",
                                  "scenario-not-utf8", "scenario-over-the-cap"])
def test_cli_reports_an_unusable_path_without_a_traceback(case, tmp_path, capsys):
    argv, kept, named = _bad_paths(tmp_path)[case]
    before = kept.read_bytes() if kept else None
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named in err
    assert "Traceback" not in err
    if kept:
        assert kept.read_bytes() == before


def test_cli_names_the_file_and_column_of_a_non_finite_value(tmp_path, capsys):
    # phi overflows on this domain; nothing is written
    out = tmp_path / "phi"
    assert main(["potential", "--well", "symmetric", "--e0", "-1e0",
                 "--e1", "-1e-3", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: potential.csv: ")
    assert "column phi" in err
    assert not (out / "potential.csv").exists()


def test_failed_run_leaves_no_artifact(tmp_path, capsys):
    # the first splitting writes its table; the second's phi overflows
    scn = tmp_path / "partial.scn"
    scn.write_text("name = partial\nwell.kind = symmetric\nwell.e0 = -1\n"
                   "sweep.delta_e = 0.5, 0.999\noutputs = potential\n")
    out = tmp_path / "out"
    assert main(["scenario", str(scn), "--out-dir", str(out)]) == 1
    assert "partial_dE0.999_potential.csv" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    # a file the run did not write stays
    (out / "keep.txt").write_text("kept\n")
    with pytest.raises(NonFinite):
        run_scenario(parse_scenario(scn), out)
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


def test_cli_refuses_a_well_it_cannot_normalise(tmp_path, capsys, monkeypatch):
    # no known well reaches the refusal, so psi0's squared norm is made inf
    monkeypatch.setattr(wellcore, "_trapezoid", lambda *args: [math.inf, 1.0])
    out = tmp_path / "out"
    assert main(["states", "--well", "asymmetric", "--alpha", "0.9", "--beta", "1",
                 "--e0", "0", "--delta-e", "1", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: psi0 of asymmetric(alpha=0.9, beta=1.0, e0=0.0, delta_e=1.0) "
        "cannot be normalised: ")
    assert not any(out.iterdir())


def test_cli_writes_the_states_of_a_well_whose_raw_peak_overflows(tmp_path):
    # unshifted, its raw ground state overflows the double range near its peak
    out = tmp_path / "out"
    assert main(["states", "--well", "asymmetric", "--alpha", "-0.907626958633722",
                 "--beta", "0.0572400416819177", "--e0", "0.7908344039085955",
                 "--delta-e", "25.377146036483598", "--out-dir", str(out)]) == 0
    assert (out / "states.csv").exists()


# an asymmetric well of c = delta_e / (4 beta**2) = 4.6e-308: its state is
# a spike far out at |beta x| ~ 350 that the build cannot normalise
TINY_C = ["--alpha", "0.5122368130867396", "--beta", "24683.169374540714",
          "--e0", "0", "--delta-e", "1.112752140687965e-298"]


def test_cli_refuses_an_asymmetric_well_of_tiny_c(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["states", "--well", "asymmetric", *TINY_C, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: --delta-e: with --beta = 24683.169374540714, c = delta_e / "
        "(4 beta**2) is 4.566007289053166e-308; a well below c = 1e-300 ")
    assert not out.exists()


def test_parse_names_the_sweep_value_of_a_tiny_c_well():
    text = ("well.kind = asymmetric\nwell.alpha = 0.5122368130867396\n"
            "well.beta = 24683.169374540714\nwell.e0 = 0\n"
            "sweep.delta_e = 1, 1.112752140687965e-298\noutputs = states\n")
    with pytest.raises(ScenarioValidationError, match=re.escape(
            "sweep.delta_e: with well.beta = 24683.169374540714, c = ")):
        parse_scenario_text(text)


def test_an_asymmetric_well_just_above_the_least_c_builds_with_unit_mass():
    beta = 24683.169374540714
    scn = parse_scenario_text(
        f"well.kind = asymmetric\nwell.alpha = 0.5122368130867396\n"
        f"well.beta = {beta!r}\nwell.e0 = 0\n"
        f"well.delta_e = {4.0 * beta ** 2 * 1e-299!r}\noutputs = states\n")
    model = wellcore.WellModel.build(scn.well_params())
    assert max(abs(m - 1.0) for m in state_masses(model)) <= 1e-9


def test_cli_names_phi_and_the_well_when_phi_leaves_the_double_range(tmp_path, capsys):
    # e1 near 0 widens the domain to L = 752, where sinh(a x)/cosh(b x)
    # ~ exp((a - b)|x|) overflows
    out = tmp_path / "out"
    assert main(["potential", "--well", "symmetric", "--e0", "-1e0", "--e1", "-1e-3",
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "phi of symmetric(e0=-1.0, e1=-0.001)" in err and "(L = 752.0)" in err
    assert list(out.iterdir()) == []


def test_cli_names_the_well_whose_domain_passes_the_search_cap(tmp_path, capsys):
    # e1 = -1e-6 would need L ~ 2.3e4, past the domain search's 1e4
    out = tmp_path / "out"
    assert main(["states", "--well", "symmetric", "--e0", "-1", "--e1", "-1e-6",
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "symmetric(e0=-1.0, e1=-1e-06)" in err
    assert "likely non-normalizable" in err


@pytest.mark.parametrize("text", [
    "well.kind = symmetric\nwell.e0 = -1\nsweep.delta_e = 0.25, 0.5\n",
    ASYM_TEXT.replace("well.delta_e = 1\n", "sweep.delta_e = 0.5, 1\n"),
], ids=["symmetric", "asymmetric"])
def test_runner_builds_the_wells_the_parser_validated(text, tmp_path, monkeypatch):
    scn = parse_scenario_text(text + "grid.n_x = 64\ngrid.n_y = 512\n"
                              "outputs = potential, states, negativity\n", name="r")
    built = []
    build = wellcore.WellModel.build.__func__

    def recording(cls, params, tail_rel=1e-10):
        built.append(params)
        return build(cls, params, tail_rel)

    monkeypatch.setattr(wellcore.WellModel, "build", classmethod(recording))
    run_scenario(scn, tmp_path / "out")
    # each stored well, in run order, built once and never rebuilt
    assert built == [run.params for run in scn.runs] and len(built) == 2
    assert all(params is run.params for params, run in zip(built, scn.runs))
