import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import scarkit
from scarkit.cli import (
    ExperimentConfig,
    main,
    parse_config,
    serialize_config,
)
from scarkit.errors import SpecParseError

def test_import_loads_no_scipy():
    # scipy is a test-only oracle: the package and its CLI run on numpy alone
    src = Path(scarkit.__file__).resolve().parent.parent
    code = "import sys, scarkit, scarkit.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert "'scarkit'" in out.stdout
    assert "'scipy'" not in out.stdout


def test_api_sweep_loads_no_scipy_or_hashlib():
    # an API sweep written to CSV needs numpy alone; only the CLI digests configs
    src = Path(scarkit.__file__).resolve().parent.parent
    code = (
        "import io, sys, scarkit as sk\n"
        f"spec = sk.parse_frequency_spec({SQRT2_FREQ!r})\n"
        "cfg = sk.SweepConfig(sk.decompose(spec), (0.5, 0.5), (0.2, 0.1, 0.05))\n"
        "sk.sweep(cfg).to_csv(io.StringIO())\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert "'scarkit'" in out.stdout
    for name in ("scipy", "hashlib", "_hashlib"):
        assert f"'{name}'" not in out.stdout


SQRT2_FREQ = """\
generators = one:1, sqrt2:1.414213562373095048801688724209698078570
omega_1 = 1 0
omega_2 = 0 1
"""

BASE_CFG = """\
spec = sqrt2.freq
E = 1/2 1/2
z0 = from-witness
hbar_start = 0.2
hbar_ratio = 0.5
hbar_count = 5
seed = 0
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "sqrt2.freq").write_text(SQRT2_FREQ)
    (tmp_path / "run.cfg").write_text(BASE_CFG)
    return tmp_path


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# scarkit 0.1.0 config=")
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_round_trip():
    cfg = parse_config(BASE_CFG)
    assert cfg.spec == "sqrt2.freq"
    assert cfg.E == (0.5, 0.5)
    assert cfg.z0 is None
    assert cfg.hbars == (0.2, 0.1, 0.05, 0.025, 0.0125)
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_parse_config_explicit_z0():
    text = BASE_CFG.replace("z0 = from-witness", "z0 = 1.0 0.5 / 0.0 -0.25")
    cfg = parse_config(text)
    assert cfg.z0 == ((1.0, 0.5), (0.0, -0.25))
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t + "seed = 1\n",  # duplicate key
        lambda t: t + "frobnicate = 3\n",  # unknown key
        lambda t: t.replace("E = 1/2 1/2\n", ""),  # missing required
        lambda t: t.replace("hbar_ratio = 0.5", "hbar_ratio = 1.5"),
        lambda t: t.replace("hbar_count = 5", "hbar_count = 2"),
        lambda t: t.replace("E = 1/2 1/2", "E = 1/0 1/2"),
        lambda t: t.replace("z0 = from-witness", "z0 = 1.0 / 0.0 0.0"),
        lambda t: t + "just some words\n",
        lambda t: t + "threads = 1\n",  # removed key: now unknown
    ],
)
def test_parse_config_rejects(mangle):
    with pytest.raises(SpecParseError):
        parse_config(mangle(BASE_CFG))


def test_parse_config_reports_line_numbers():
    with pytest.raises(SpecParseError) as err:
        parse_config(BASE_CFG + "# fine\nwhat\n")
    assert err.value.line == len(BASE_CFG.splitlines()) + 2


def test_hbars_schedule_is_geometric():
    cfg = ExperimentConfig(
        spec="s", E=(1.0,), hbar_start=0.4, hbar_ratio=0.25, hbar_count=3
    )
    assert cfg.hbars == pytest.approx((0.4, 0.1, 0.025))


# ---------------------------------------------------------------------------
# analyze / levels


def test_analyze_table(workdir, capsys):
    assert main(["analyze", str(workdir / "sqrt2.freq")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "d_omega = 2"
    assert "T = 6.2831853071795862" in out[1]
    assert "conductor = 0" in out[1]
    assert f"T = {2 * math.pi / math.sqrt(2):.17g}" in out[2]


def test_analyze_resonant_pair(tmp_path, capsys):
    path = tmp_path / "r.freq"
    path.write_text("generators = one:1\nomega_1 = 2\nomega_2 = 3\n")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "d_omega = 1"
    assert "k = 2 3" in out[1]
    assert "conductor = 2" in out[1]
    assert "zero_point = 5" in out[1]


def test_analyze_bad_rational_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.freq"
    path.write_text("generators = one:1\nomega_1 = 1/0\n")
    assert main(["analyze", str(path)]) == 2
    assert "1/0" in capsys.readouterr().err


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.freq")]) == 2
    assert "nope.freq" in capsys.readouterr().err


def test_levels_stdout(workdir, capsys):
    rc = main(
        ["levels", str(workdir / "sqrt2.freq"),
         "--hbar", "0.5", "--lo", "1.9", "--hi", "2.2"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# scarkit 0.1.0 config=")
    assert lines[1] == "k1,k2,lambda,multiplicity,lambda_1,lambda_2"
    ks = {tuple(ln.split(",")[:2]) for ln in lines[2:]}
    assert ks == {("0", "2"), ("3", "0")}


def test_levels_to_file(workdir):
    out = workdir / "levels.csv"
    rc = main(
        ["levels", str(workdir / "sqrt2.freq"),
         "--hbar", "0.5", "--lo", "1.9", "--hi", "2.2", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header[:2] == ["k1", "k2"]
    assert len(rows) == 2


@pytest.mark.parametrize("hbar", ["1e-300", "1e-310"])
def test_levels_too_many_points_exits_5_at_once(workdir, capsys, hbar):
    # at 1e-300 the last coordinate alone spans about 7e291 values, and the
    # walk used to form exact coordinates for 10^7 points (over a minute)
    # before its cap fired; at 1e-310, hi / hbar overflows, which raised a
    # bare OverflowError
    start = time.perf_counter()
    rc = main(["levels", str(workdir / "sqrt2.freq"), "--hbar", hbar, "--lo", "0.5", "--hi", "0.50000001"])
    assert time.perf_counter() - start < 1.0
    assert rc == 5
    assert "eigenvalue window exceeds 10^7 lattice points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value", [("--hbar", "nan"), ("--hbar", "inf"), ("--lo", "nan"), ("--hi", "inf")]
)
def test_levels_non_finite_input_exits_2(workdir, capsys, flag, value):
    args = {"--hbar": "0.5", "--lo": "1.9", "--hi": "2.2", flag: value}
    rc = main(["levels", str(workdir / "sqrt2.freq"), *(x for kv in args.items() for x in kv)])
    assert rc == 2
    assert "ValidationError" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_outputs(workdir):
    rc = main(["sweep", str(workdir / "run.cfg"), "--out", str(workdir / "o")])
    assert rc == 0
    header, rows = read_csv(workdir / "o" / "rows.csv")
    assert header == [
        "hbar", "observable", "value_re", "value_im",
        "reference_re", "reference_im", "residual",
    ]
    names = {r[1] for r in rows}
    assert "c_hbar" in names and "gap:x1^2" in names
    hbars = {float(r[0]) for r in rows}
    assert hbars == {0.2, 0.1, 0.05, 0.025, 0.0125}

    sheader, srows = read_csv(workdir / "o" / "slopes.csv")
    assert sheader == ["observable", "slope"]
    assert {r[0] for r in srows} == names

    theader, trows = read_csv(workdir / "o" / "targets.csv")
    assert theader == [
        "hbar", "N_1", "lambda_1", "window_ok_1",
        "N_2", "lambda_2", "window_ok_2", "lambda_total",
    ]
    assert len(trows) == 5
    for row in trows:
        assert row[3] == "1" and row[6] == "1"

    summary = (workdir / "o" / "summary.txt").read_text()
    assert summary.startswith("# scarkit 0.1.0 config=")
    assert "slope c_hbar" in summary and "FAIL" not in summary


def test_sweep_reruns_byte_identical(workdir):
    main(["sweep", str(workdir / "run.cfg"), "--out", str(workdir / "a")])
    main(["sweep", str(workdir / "run.cfg"), "--out", str(workdir / "b")])
    for name in ("rows.csv", "slopes.csv", "targets.csv", "summary.txt"):
        assert (workdir / "a" / name).read_bytes() == (
            workdir / "b" / name
        ).read_bytes()


def test_sweep_infeasible_energy_exits_3(workdir, capsys):
    cfg = workdir / "bad.cfg"
    cfg.write_text(BASE_CFG.replace("E = 1/2 1/2", "E = 0.7 0.7"))
    rc = main(["sweep", str(cfg), "--out", str(workdir / "h")])
    assert rc == 3
    assert "simplex" in capsys.readouterr().err
    assert not (workdir / "h").exists()


@pytest.mark.parametrize("start", ["nan", "inf", "-0.2"])
def test_sweep_non_finite_hbar_start_exits_2(workdir, capsys, start):
    cfg = workdir / "nan.cfg"
    cfg.write_text(BASE_CFG.replace("hbar_start = 0.2", f"hbar_start = {start}"))
    rc = main(["sweep", str(cfg), "--out", str(workdir / "x")])
    assert rc == 2
    assert "hbar_start must be positive and finite" in capsys.readouterr().err
    assert not (workdir / "x").exists()


def test_sweep_custom_symbols(workdir):
    cfg = workdir / "sym.cfg"
    cfg.write_text(BASE_CFG + "symbols = x1^2; H1\n")
    rc = main(["sweep", str(cfg), "--out", str(workdir / "s")])
    assert rc == 0
    _, rows = read_csv(workdir / "s" / "rows.csv")
    gaps = {r[1] for r in rows if r[1].startswith("gap:")}
    assert gaps == {"gap:x1^2", "gap:H1"}
    summary = (workdir / "s" / "summary.txt").read_text()
    assert "slope gap:x1^2" in summary and "band" in summary


@pytest.mark.parametrize(
    "symbol, named",
    [
        ("2e308*x1", "number '2e308' overflows"),
        ("1e308*x1 + 1e308*x1", "monomial (1, 0, 0, 0) has a non-finite coefficient"),
    ],
)
def test_sweep_overflowing_symbol_exits_2(workdir, capsys, symbol, named):
    # an inf coefficient used to reach the kernels: every step failed with a
    # non-finite row blamed on the polynomial kernel, and sweep exited 4
    cfg = workdir / "inf.cfg"
    cfg.write_text(BASE_CFG + f"symbols = {symbol}\n")
    rc = main(["sweep", str(cfg), "--out", str(workdir / "o")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (workdir / "o").exists()


def test_sweep_repeated_probe_label_exits_2(workdir, capsys):
    # two probes named x1^2 wrote 10 gap:x1^2 rows in 5 steps and exited 0
    cfg = workdir / "dup.cfg"
    cfg.write_text(BASE_CFG + "symbols = x1^2; x1^2\n")
    rc = main(["sweep", str(cfg), "--out", str(workdir / "o")])
    assert rc == 2
    assert "probe label x1^2 repeats" in capsys.readouterr().err
    assert not (workdir / "o").exists()


def test_sweep_failed_band_exits_4_after_writing_outputs(workdir, capsys):
    cfg = workdir / "big.cfg"
    cfg.write_text(BASE_CFG.replace("hbar_start = 0.2", "hbar_start = 500"))
    rc = main(["sweep", str(cfg), "--out", str(workdir / "f")])
    assert rc == 4
    for name in ("rows.csv", "slopes.csv", "targets.csv", "summary.txt"):
        assert (workdir / "f" / name).is_file()
    assert "band [0.35, inf]: FAIL" in (workdir / "f" / "summary.txt").read_text()
    assert "1 band(s) printed FAIL" in capsys.readouterr().err


def test_sweep_failed_step_exits_4(workdir, monkeypatch):
    from scarkit import scarlab
    from scarkit.errors import NumericalError

    def numerical_failure(*args, **kwargs):
        raise NumericalError("injected")

    monkeypatch.setattr(scarlab, "build_scar", numerical_failure)
    rc = main(["sweep", str(workdir / "run.cfg"), "--out", str(workdir / "n")])
    assert rc == 4
    summary = (workdir / "n" / "summary.txt").read_text()
    assert summary.count("NumericalError: injected") == 5


def test_sweep_non_finite_row_exits_4(workdir, monkeypatch):
    from scarkit import scarlab

    # every gap row is the unrotated value of the flowed probe: make the
    # whole flowed pass, its grouped polynomial and character calls, NaN
    monkeypatch.setattr(
        scarlab, "expectation",
        lambda bra, ket, a, thetas, _groups: np.full(
            (len(_groups), len(thetas)), complex(math.nan, 0.0)
        ),
    )
    rc = main(["sweep", str(workdir / "run.cfg"), "--out", str(workdir / "nan")])
    assert rc == 4
    _, rows = read_csv(workdir / "nan" / "rows.csv")
    assert rows == []
    summary = (workdir / "nan" / "summary.txt").read_text()
    assert summary.count("NumericalError: non-finite value (nan+0j) in row gap:x1") == 5
    assert "(polynomial expectation kernel)" in summary


def test_sweep_summary_says_why_slopes_are_nan(workdir):
    cfg = workdir / "short.cfg"
    cfg.write_text(BASE_CFG.replace("hbar_count = 5", "hbar_count = 3"))
    rc = main(["sweep", str(cfg), "--out", str(workdir / "short")])
    assert rc == 4  # the c_hbar band fails on a NaN slope
    _, srows = read_csv(workdir / "short" / "slopes.csv")
    assert {r[1] for r in srows} == {"nan"}
    lines = (workdir / "short" / "summary.txt").read_text().splitlines()
    slope_lines = [ln for ln in lines if ln.startswith("slope ")]
    assert slope_lines and all(
        "(3 point(s); fewer than two remain after dropping the 2 largest hbar)" in ln
        for ln in slope_lines
    )


def test_sweep_three_independent_generators(tmp_path):
    # omega = (1, sqrt2, sqrt3), d_omega = 3, default probes with characters
    cfg = Path(__file__).resolve().parents[1] / "configs" / "sqrt2sqrt3.cfg"
    rc = main(["sweep", str(cfg), "--out", str(tmp_path / "d3")])
    assert rc == 0
    _, rows = read_csv(tmp_path / "d3" / "rows.csv")
    assert {float(r[0]) for r in rows} == {0.2, 0.1, 0.05, 0.025, 0.0125}
    assert {r[1] for r in rows} >= {"gap:char1", "gap:char2", "invariance:3"}
    assert all(math.isfinite(float(v)) for r in rows for v in (r[0], *r[2:]))


def test_resource_limit_exits_5(workdir, capsys):
    cfg = workdir / "tiny.cfg"
    cfg.write_text(BASE_CFG.replace("hbar_start = 0.2", "hbar_start = 1e-7"))
    rc = main(["dump", str(cfg), "--out", str(workdir / "t")])
    assert rc == 5
    assert "ResourceLimitError" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# husimi / dump


def test_husimi_ring_shape(workdir):
    rc = main(
        ["husimi", str(workdir / "run.cfg"), "--mode", "1",
         "--grid", "41", "--out", str(workdir / "hu")]
    )
    assert rc == 0
    header, rows = read_csv(workdir / "hu" / "husimi_mode1.csv")
    assert header == ["x1", "xi1", "value"]
    pts = [(float(x), float(xi), float(v)) for x, xi, v in rows]
    x_best, xi_best, v_best = max(pts, key=lambda p: p[2])
    # at hbar = 0.2 the state holds mode-1 level N = 2; the density rides
    # the ring of radius sqrt(2 hbar N), flat in angle
    r_best = math.hypot(x_best, xi_best)
    assert abs(r_best - math.sqrt(2 * 0.2 * 2)) < 0.15
    center = min(pts, key=lambda p: math.hypot(p[0], p[1]))
    assert center[2] < 0.05 * v_best
    by_cell = {(round(x, 9), round(xi, 9)): v for x, xi, v in pts}
    swapped = by_cell[(round(xi_best, 9), round(x_best, 9))]
    assert swapped == pytest.approx(v_best, rel=1e-6)


def test_husimi_mode_out_of_range(workdir, capsys):
    rc = main(
        ["husimi", str(workdir / "run.cfg"), "--mode", "5",
         "--out", str(workdir / "hm")]
    )
    assert rc == 2
    assert "mode" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0", "1"])
def test_husimi_rejects_grids_below_two_points(workdir, capsys, grid):
    # 1 point once divided by zero and 0 points wrote an empty CSV
    out = workdir / f"hg{grid}"
    rc = main(
        ["husimi", str(workdir / "run.cfg"), "--mode", "1", "--grid", grid, "--out", str(out)]
    )
    assert rc == 2
    assert f"--grid needs at least 2 points per axis, got {grid}" in capsys.readouterr().err
    assert not (out / "husimi_mode1.csv").exists()


def test_husimi_from_dumped_state(workdir):
    rc = main(["dump", str(workdir / "run.cfg"), "--out", str(workdir / "d")])
    assert rc == 0
    state_file = workdir / "d" / "state.csv"
    assert state_file.exists()
    rc = main(
        ["husimi", str(workdir / "run.cfg"), "--mode", "2", "--grid", "21",
         "--state", str(state_file), "--out", str(workdir / "d2")]
    )
    assert rc == 0
    _, rows = read_csv(workdir / "d2" / "husimi_mode2.csv")
    assert len(rows) == 21 * 21
    assert max(float(r[2]) for r in rows) > 0


def test_husimi_of_a_built_and_a_stored_state_agree(workdir):
    # the span once came from the state's cutoff: the coherent state's, (20, 18),
    # for a built scar, but the largest index, (2, 2), for its dump
    cfg = str(workdir / "run.cfg")
    assert main(["dump", cfg, "--out", str(workdir / "d")]) == 0
    for mode in ("1", "2"):
        args = ["husimi", cfg, "--mode", mode, "--grid", "21", "--out"]
        assert main(args + [str(workdir / "b")]) == 0
        assert main(args + [str(workdir / "s"), "--state", str(workdir / "d" / "state.csv")]) == 0
        name = f"husimi_mode{mode}.csv"
        assert (workdir / "b" / name).read_bytes() == (workdir / "s" / name).read_bytes()


def test_husimi_empty_state_file(workdir, capsys):
    empty = workdir / "empty.csv"
    empty.write_text("")
    rc = main(
        ["husimi", str(workdir / "run.cfg"), "--mode", "1",
         "--state", str(empty), "--out", str(workdir / "he")]
    )
    assert rc == 2
    assert "state file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entry point


def test_console_script_runs(workdir):
    # the child imports the same scarkit as this test, installed or not
    src = str(Path(scarkit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "scarkit.cli", "analyze", str(workdir / "sqrt2.freq")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("d_omega = 2")
