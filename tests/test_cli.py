import argparse
import csv
import hashlib
import io
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vanetconn import analytic, montecarlo
from vanetconn.cli import (SIMULATE_HEADER, _csv_field, _line, _parse_value_spec,
                           _write_csv, main)

SRC = Path(__file__).resolve().parents[1] / "src"


def _read(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _run(tmp_path, *args):
    out = tmp_path / "out.csv"
    code = main([*args, "--out", str(out)])
    return code, out


def _fresh_python(*args, **kwargs) -> subprocess.Popen:
    """A new interpreter that imports vanetconn from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def test_analytic_defaults_include_reference_network_row(tmp_path):
    code, out = _run(tmp_path, "analytic")
    assert code == 0
    rows = _read(out)
    net = [r for r in rows if r["metric"] == "p_network"
           and r["rho"] == "0.019" and r["psi_db"] == "15"]
    assert len(net) == 1
    assert abs(float(net[0]["value"]) - 0.20 ) < 0.01
    assert net[0]["model"] == "unit_disc"


def test_analytic_closed_form_column_agrees_with_quadrature(tmp_path):
    code, out = _run(tmp_path, "analytic", "--rho", "0.019", "--psi-db", "15")
    assert code == 0
    rows = _read(out)
    quad = {r["m_or_M"]: float(r["value"]) for r in rows
            if r["model"] == "rayleigh" and r["metric"] == "p_single_link"}
    closed = {r["m_or_M"]: float(r["value"]) for r in rows
              if r["metric"] == "p_single_link_closed"}
    assert set(quad) == set(closed) == {str(m) for m in range(1, 11)}
    for m in quad:
        assert math.isclose(quad[m], closed[m], rel_tol=1e-6), f"m={m}"


def test_analytic_divergent_snr_is_flagged(tmp_path):
    code, out = _run(tmp_path, "analytic", "--rho", "0.019", "--psi-db", "15")
    rows = _read(out)
    snr = {(r["model"], r["m_or_M"]): r["value"] for r in rows if r["metric"] == "avg_snr"}
    assert snr[("rayleigh", "1")] == "diverges"
    assert snr[("rayleigh", "2")] == "diverges"
    assert snr[("rayleigh", "3")] == snr[("unit_disc", "3")]
    assert abs(float(snr[("rayleigh", "3")]) - 360.14) < 0.01


def test_empty_grid_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["analytic", "--rho", "", "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code != 0


def test_bad_range_spec_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["analytic", "--rho", "0.1:0.2", "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code != 0


@pytest.mark.parametrize("flag, spec", [
    ("--rho", "0:inf:1"),
    ("--rho", "nan:1:0.1"),
    ("--psi-db", "0:10:inf"),
    ("--rho", "0:1:1e-12"),  # 10^12 points: refused before any list is built
    ("--rho", "-1e308:1e308:1"),  # finite bounds whose span overflows
])
def test_unbounded_range_spec_is_a_usage_error(tmp_path, capsys, flag, spec):
    with pytest.raises(SystemExit) as excinfo:
        main(["analytic", f"{flag}={spec}", "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2
    # argparse names the flag; the message must not name it again
    assert capsys.readouterr().err.splitlines()[-1].count(flag) == 1
    assert not (tmp_path / "x.csv").exists()


def test_range_spec_point_ceiling(monkeypatch):
    monkeypatch.setattr("vanetconn.cli._MAX_RANGE_POINTS", 10)
    assert len(_parse_value_spec("0:9:1")) == 10
    with pytest.raises(argparse.ArgumentTypeError, match="more than 10 points"):
        _parse_value_spec("0:10:1")


def test_grid_point_ceiling(monkeypatch, tmp_path):
    # the ceiling bounds the grid too, before any of its points is built
    monkeypatch.setattr("vanetconn.cli._MAX_RANGE_POINTS", 10)
    out = tmp_path / "grid.csv"
    assert main(["analytic", "--rho", "0.01:0.03:0.01", "--psi-db", "0:10:5", "--big-m", "1",
                 "--out", str(out)]) == 0
    out.unlink()
    with pytest.raises(SystemExit) as excinfo:
        main(["analytic", "--rho", "0.01:0.04:0.01", "--psi-db", "0:15:5", "--big-m", "1",
              "--out", str(out)])
    assert excinfo.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("rho, where, flag", [
    ("0.019", "missing_dir", "--out"),
    ("0.019", "a_directory", "--out"),
    ("0", "missing_dir", "--rho"),  # the grid is validated first
])
def test_unopenable_out_is_a_usage_error(tmp_path, capsys, rho, where, flag):
    out = tmp_path / "missing" / "x.csv" if where == "missing_dir" else tmp_path
    with pytest.raises(SystemExit) as excinfo:
        main(["analytic", "--rho", rho, "--psi-db", "15", "--big-m", "1", "--out", str(out)])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err.splitlines()[-1]


@settings(max_examples=60, deadline=None)
@given(start=st.floats(-1e3, 1e3), step=st.floats(1e-3, 1e3), span=st.floats(0.0, 200.0))
@example(start=0.0, step=0.4, span=2.5)  # 0:1:0.4
def test_range_spec_properties(start, step, span):
    # the on-grid points start + k*step up to stop; the last one is clamped
    # onto stop only when it overshoots by rounding
    stop = start + span * step
    values = _parse_value_spec(f"{start!r}:{stop!r}:{step!r}")
    tol = 1e-6 * step
    assert values[0] == start
    assert max(values) <= stop
    for k, value in enumerate(values):
        on_grid = start + k * step
        assert value == on_grid or (value == stop and on_grid - stop <= tol), (k, value)
    assert start + len(values) * step > stop  # no on-grid point at or below stop left out


@pytest.mark.parametrize("flag, value", [
    ("--trials", "0"),
    ("--seed", "-1"),
    ("--big-m", "0"),
    ("--workers", "0"),
    ("--trials", "many"),
    ("--rho", "0"),
    ("--rho", "-0.01"),
    ("--rho", "0.01,0"),
    ("--length-m", "-5"),
    ("--noise-mw", "0"),
    ("--beta", "-1"),
    ("--alpha", "0"),
    ("--tx-dbm", "nan"),
    ("--tx-dbm", "1e5"),
    ("--psi-db", "1e5"),
    ("--psi-db", ", "),  # a list with no values
])
def test_bad_simulate_arguments_are_usage_errors(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--rho", "0.01", "--psi-db", "15", "--trials", "2",
              flag, value, "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2
    # the error line, not only the usage line, names the flag, and names it once
    assert capsys.readouterr().err.splitlines()[-1].count(flag) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--rho", "0.01,0"),
    ("--tx-dbm", "1e5"),
    ("--rho", ","),  # a list with no values
])
def test_bad_analytic_grid_writes_nothing(tmp_path, flag, value):
    # a bad later grid point must not leave the earlier points' rows behind
    with pytest.raises(SystemExit) as excinfo:
        main(["analytic", "--psi-db", "15", flag, value, "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["analytic", "simulate"])
@pytest.mark.parametrize("flag, value", [("--psi-db", "-3100"), ("--tx-dbm", "3080")])
def test_infinite_unit_disc_range_is_a_usage_error(tmp_path, capsys, command, flag, value):
    # each input is a finite float, but (beta P_T / (P_N psi))^(1/alpha) overflows
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--rho", "0.019", flag, value, "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2
    assert "unit-disc range" in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["analytic", "simulate"])
def test_density_too_small_for_its_road_is_a_usage_error(tmp_path, capsys, command):
    # a headway can reach 37 / rho, which overflows a float at rho = 1e-309
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--rho", "1e-309", "--psi-db", "15", "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2
    assert "argument --rho: rho 1e-309" in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "x.csv").exists()


def test_near_empty_road_analytic_writes_no_warning():
    # the gap-scale cutoff 50 / rho overflows at rho = 2.1e-307; the finite
    # channel scale is the cutoff there, and nothing reaches stderr
    proc = _fresh_python("-m", "vanetconn", "analytic", "--rho", "2.1e-307", "--psi-db", "15",
                         "--big-m", "2", stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    out, err = proc.communicate()
    assert proc.returncode == 0
    assert err == ""
    assert len(out.splitlines()) > 1


def test_interior_margin_at_an_overflowing_range_in_vehicles(tmp_path):
    # rho times the 1.4e18 m unit-disc range overflows; the margin is
    # clamped to the two vehicles' (N - 10) // 2 all the same
    code, out = _run(tmp_path, "simulate", "--rho", "1e300", "--length-m", "1e-300",
                     "--psi-db", "-300", "--trials", "1")
    assert code == 0
    rows = _read(out)
    assert len(rows) == 10 and {r["error"] for r in rows} == {""}
    assert {r["n_vehicles"] for r in rows} == {"2"}


def test_analytic_closed_form_at_infinite_reach(tmp_path):
    # rho * lam overflows to inf; the quadrature rows read 1 there
    code, out = _run(tmp_path, "analytic", "--rho", "1e300", "--psi-db", "-300",
                     "--model", "rayleigh", "--big-m", "2")
    assert code == 0
    closed = [r["value"] for r in _read(out) if r["metric"] == "p_single_link_closed"]
    assert closed == ["1", "1"]


@pytest.mark.parametrize("model, psi_db", [("both", "15"), ("rayleigh", "15"),
                                           ("rayleigh", "-300")])
def test_analytic_average_snr_overflow_names_its_metric_and_point(tmp_path, capsys, model,
                                                                 psi_db):
    # rho^alpha overflows a float in the m = 3 average SNR (the unit disc's
    # comes first when both models run); the one-line error says which value
    code, _ = _run(tmp_path, "analytic", "--rho", "0.019,1e300", "--psi-db", psi_db,
                   "--big-m", "3", "--model", model)
    assert code == 1
    first = "unit_disc" if model == "both" else "rayleigh"
    assert capsys.readouterr().err == (f"vanetconn: {first} avg_snr at m=3 overflows a float "
                                       f"at rho=1e+300, psi_db={psi_db}\n")


def test_analytic_closed_form_past_the_double_precision_guard(tmp_path):
    # rho^2 lam^2 / 4 is about 1250 here
    code, out = _run(tmp_path, "analytic", "--rho", "0.05", "--psi-db", "0")
    assert code == 0
    closed = [r["value"] for r in _read(out) if r["metric"] == "p_single_link_closed"]
    assert len(closed) == 10
    assert all(0.0 < float(v) <= 1.0 for v in closed)


def test_analytic_closed_form_at_large_neighbour_index(tmp_path):
    # here the double sum's total is NaN from m = 309 (once read as 1.0), and
    # math.gamma raises from m = 344; the recurrence takes over instead
    code, out = _run(tmp_path, "analytic", "--rho", "0.01", "--psi-db", "5",
                     "--model", "rayleigh", "--big-m", "400")
    assert code == 0
    rows = _read(out)
    quad = [float(r["value"]) for r in rows
            if r["model"] == "rayleigh" and r["metric"] == "p_single_link"]
    closed = [float(r["value"]) for r in rows if r["metric"] == "p_single_link_closed"]
    assert len(quad) == len(closed) == 400
    for m, (q, c) in enumerate(zip(quad, closed), start=1):
        assert math.isclose(q, c, rel_tol=1e-8) or max(q, c) < 1e-6, (m, q, c)
    assert closed[-1] < 1e-6


def test_simulate_big_m_beyond_the_road_lists_every_gap(tmp_path):
    # N = 190 here: a span of 10^12 gives the bytes of N - 1 = 189, and no
    # array is sized by the flag
    code, out = _run(tmp_path, "simulate", "--rho", "0.019", "--psi-db", "15",
                     "--trials", "20", "--big-m", "1000000000000")
    assert code == 0
    huge = out.read_bytes()
    code, out = _run(tmp_path, "simulate", "--rho", "0.019", "--psi-db", "15",
                     "--trials", "20", "--big-m", "189")
    assert code == 0
    assert out.read_bytes() == huge


# SHA-256 of the CSV bytes, recorded with the dense-matrix eigensolve pipeline
# that preceded the edge-list one; the output contract is byte identity.
GOLDEN_SIMULATE = {
    "components": "51d98bfb7bf6f72a50e29f933d8e2c1951fbc8b6282e4afafeee72d387f8e386",
    "eigen": "51d98bfb7bf6f72a50e29f933d8e2c1951fbc8b6282e4afafeee72d387f8e386",
    "both": "33750f34b5d6af5191f04b4b7f1d90656ddea5b9c9fa3d60f573b6f09fdc7ef8",
}


@pytest.mark.parametrize("decider", sorted(GOLDEN_SIMULATE))
def test_simulate_matches_golden_digest(tmp_path, decider):
    code, out = _run(tmp_path, "simulate", "--rho", "0.006,0.019", "--psi-db", "5,15",
                     "--trials", "20", "--seed", "7", "--big-m", "3", "--decider", decider)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SIMULATE[decider]


# 600 vehicles at 0 dB: a fading window of 121 040 pairs, thresholded in
# about fifteen blocks; recorded before the window was built in blocks
GOLDEN_SIMULATE_MANY_BLOCKS = "40940897c1f017cb4586c19a380cdb26871c11e2abd0fed3eeedfec7086d6bd2"


def test_simulate_over_many_blocks_matches_golden_digest(tmp_path):
    code, out = _run(tmp_path, "simulate", "--rho", "0.03", "--length-m", "20000",
                     "--psi-db", "0", "--trials", "3", "--big-m", "3", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SIMULATE_MANY_BLOCKS


# SHA-256 of the CSV bytes of analytic grids.  The first two were recorded
# while the closed form's deep cancellations were re-summed in mpmath at up to
# 640 digits and every link probability ran its own adaptive quadrature; the
# double-precision recurrence and the batched Gauss–Legendre rule keep every
# byte.  The --big-m 40 grid was re-recorded with that rule: its link
# probabilities at rho = 0.006, 15 dB, m = 25..40 (1e-14 to 6e-26) now hold a
# relative 1e-10 error bound, which the absolute one before them did not.
GOLDEN_ANALYTIC = {
    "--rho 0.002:0.03:0.002 --psi-db 0:20:2":
        "f5ecaaa3e2e313ea2cbd9a02bd5ad5ec715a2149c06db7a0277adb2e61cc834a",
    "--rho 0.026:0.03:0.002 --psi-db 0:4:2":
        "526cdb14eecf57c466a5ceb4ff3d55296e7c027a87f63c732c9f313d69ab9ce6",
    "--rho 0.006,0.019,0.03 --psi-db 0,15 --big-m 40":
        "0ce54120baf1832fc9dd7c5fe7755d36a2fb3ff02b47ce5d7590c294cffc7fda",
    # every branch of the closed form: 175 forward and 3 483 backward
    # recurrences, 1 200 of them at a^2/4 >= 700, and from m = 344 an
    # incomplete gamma that overflows; recorded while each call of the closed
    # form computed its own incomplete gammas
    "--rho 0.0002,0.002,0.03,0.3 --psi-db=-10,0,20 --big-m 400":
        "93e90999db338a1fd74108f3e890d61119766941e35826b739e649ace40fb212",
    # the default grid, no grid flags: its 11 escalations form a batch of
    # fewer than 64 backward recurrences, which steps in Python floats only
    "": "e79da54adc4dcef650f073ced1392ef05ff77d38d5b3e55728e58e7203b16c9c",
}


@pytest.mark.parametrize("grid", sorted(GOLDEN_ANALYTIC), ids=lambda grid: grid or "default")
def test_analytic_matches_golden_digest(tmp_path, grid):
    code, out = _run(tmp_path, "analytic", *grid.split())
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ANALYTIC[grid]


@pytest.mark.parametrize("grid", [
    ["--alpha", "3", "--big-m", "12"],
    ["--alpha", "1"],
    ["--model", "unit_disc"],
    ["--model", "rayleigh", "--big-m", "2"],
], ids=" ".join)
def test_analytic_lines_are_the_rows_formatted_one_by_one(tmp_path, make_params, grid):
    # the CLI fills one template per grid; the reference formats each row of
    # point_rows on its own, its floats by format(v, '.12g')
    rhos, psis = (0.006, 0.019, 0.3), (-10.0, 0.0, 15.0)
    code, out = _run(tmp_path, "analytic", "--rho", "0.006,0.019,0.3", "--psi-db=-10,0,15",
                     *grid)
    assert code == 0
    args = dict(zip(grid[::2], grid[1::2]))
    alpha, big_m = int(args.get("--alpha", 2)), int(args.get("--big-m", 10))
    model = args.get("--model", "both")
    models = ("unit_disc", "rayleigh") if model == "both" else (model,)
    lines = ["model,rho,psi_db,m_or_M,metric,value\n"]
    for rho in rhos:
        for psi_db in psis:
            params = make_params(rho=rho, psi_db=psi_db, ple=alpha)
            lines += [f"{name},{format(rho, '.12g')},{format(psi_db, '.12g')},"
                      f"{'' if m is None else m},{metric},"
                      f"{value if isinstance(value, str) else format(value, '.12g')}\n"
                      for name, m, metric, value in analytic.point_rows(params, big_m, models)]
    assert out.read_text() == "".join(lines)


def test_analytic_runs_without_mpmath(tmp_path):
    grid = "--rho 0.026:0.03:0.002 --psi-db 0:4:2"
    out = tmp_path / "out.csv"
    script = ("import sys; sys.modules['mpmath'] = None; from vanetconn.cli import main; "
              f"sys.exit(main(['analytic', *{grid.split()!r}, '--out', {str(out)!r}]))")
    proc = _fresh_python("-c", script, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ANALYTIC[grid]


def test_analytic_point_runs_one_quadrature_call(tmp_path, monkeypatch):
    # every link probability of a grid chunk in one batch, one integral per
    # point and m; the rows and the vehicle-connectivity products read it
    calls = []
    integrate = analytic.integrate_semi_infinite

    def counting(f, upper, rows):
        calls.append(len(rows))
        return integrate(f, upper, rows)

    monkeypatch.setattr(analytic, "integrate_semi_infinite", counting)
    code, _ = _run(tmp_path, "analytic", "--rho", "0.019,0.023", "--psi-db", "15",
                   "--model", "rayleigh", "--big-m", "10")
    assert code == 0
    assert calls == [20]


def test_analytic_grid_escalates_in_one_lane_solve(tmp_path, monkeypatch):
    # every escalated closed form of the 165-point grid in one batch
    calls = []
    solve = analytic._closed_forms_mp

    def counting(lanes):
        calls.append(len(lanes))
        return solve(lanes)

    monkeypatch.setattr(analytic, "_closed_forms_mp", counting)
    code, _ = _run(tmp_path, "analytic", "--rho", "0.002:0.03:0.002", "--psi-db", "0:20:2")
    assert code == 0
    assert calls == [706]


# 30 x 10 points: more than one chunk, both with escalations at a^2/4 >= 700
_TWO_CHUNK_GRID = ["--rho", "0.01:0.3:0.01", "--psi-db", "0:18:2", "--big-m", "12"]


def test_analytic_grid_past_one_chunk_gives_the_per_point_bytes(tmp_path, monkeypatch):
    solves = []
    solve = analytic._closed_forms_mp

    def counting(lanes):
        solves.append(len(lanes))
        return solve(lanes)

    monkeypatch.setattr(analytic, "_closed_forms_mp", counting)
    code, out = _run(tmp_path, "analytic", *_TWO_CHUNK_GRID)
    assert code == 0
    assert len(solves) == 2
    grid = out.read_bytes()
    # one point a chunk: each point's rows are its point_rows, its
    # escalations a batch of their own
    monkeypatch.setattr(analytic, "_GRID_CHUNK", 1)
    solves.clear()
    code, out = _run(tmp_path, "analytic", *_TWO_CHUNK_GRID)
    assert code == 0
    assert len(solves) == 300
    assert out.read_bytes() == grid


def test_analytic_grid_error_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    full = tmp_path / "full.csv"
    assert main(["analytic", *_TWO_CHUNK_GRID, "--out", str(full)]) == 0
    # raised while the second chunk is solved, after the first chunk's rows
    solves = []
    products = analytic._backward_products

    def failing(ms, a2s):
        solves.append(len(ms))
        if len(solves) == 2:
            raise ArithmeticError("lane solve failed")
        return products(ms, a2s)

    monkeypatch.setattr(analytic, "_backward_products", failing)
    code, out = _run(tmp_path, "analytic", *_TWO_CHUNK_GRID)
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["vanetconn: lane solve failed"]
    assert len(solves) == 2
    # the rows stream a point at a time: the file holds the header and the
    # whole first chunk, and nothing of the second
    header, *lines = full.read_text().splitlines(keepends=True)
    points = [list(rows) for _, rows in
              itertools.groupby(lines, key=lambda line: line.split(",")[1:3])]
    assert len(points) == 300
    first_chunk = points[:analytic._GRID_CHUNK]
    assert out.read_text() == header + "".join(itertools.chain.from_iterable(first_chunk))


def test_analytic_link_value_does_not_depend_on_the_span(tmp_path):
    # each point integrates a batch as long as its span; the rows of a
    # shorter span are the same strings
    spans = {}
    for big_m in ("3", "10"):
        code, out = _run(tmp_path, "analytic", "--rho", "0.006,0.019", "--psi-db", "0,15",
                         "--model", "rayleigh", "--big-m", big_m)
        assert code == 0
        spans[big_m] = [(r["rho"], r["psi_db"], r["m_or_M"], r["value"]) for r in _read(out)
                        if r["metric"] == "p_single_link"]
    assert spans["3"] == [row for row in spans["10"] if int(row[2]) <= 3]
    assert len(spans["3"]) == 12


def test_failed_cell_is_an_error_row_and_the_grid_continues(tmp_path):
    # N = 800 with every pair linked is past the spectral decider's ceiling
    args = ["--psi-db", "-250", "--trials", "2", "--decider", "eigen", "--model", "unit_disc"]
    code, out = _run(tmp_path, "simulate", "--rho", "0.08,0.019", *args)
    assert code == 0
    rows = _read(out)
    assert rows[0]["metric"] == "error" and rows[0]["n_vehicles"] == ""
    assert rows[0]["error"].startswith("SpectralCeilingError: ")
    alone = tmp_path / "alone.csv"
    assert main(["simulate", "--rho", "0.019", *args, "--out", str(alone)]) == 0
    assert rows[1:] == _read(alone)
    assert {r["n_vehicles"] for r in rows[1:]} == {"190"}


@pytest.mark.parametrize("message", [
    "ValueError: a, b", 'RuntimeError: said "no"', "two\nlines", "carriage\rreturn",
    "crlf\r\nend", "  leading spaces", " ", ",", '"',
])
def test_error_field_is_written_as_csv_writer_writes_it(message):
    # the simulate lines are joined by hand; only the free-text error field is
    # quoted, by csv itself, so the bytes are csv.writer's on every Python
    row = ["rayleigh", "0.019", "15", "", "2", "error", "", "", "", "1", "", message]
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([SIMULATE_HEADER, row])
    got = io.StringIO()
    _write_csv(got, SIMULATE_HEADER, [_line(*row[:-1], _csv_field(message))])
    assert got.getvalue() == expected.getvalue()


def test_simulate_error_row_with_a_comma_reads_back(tmp_path, monkeypatch):
    run_ensemble = montecarlo.run_ensemble

    def failing(params, model, *args, **kwargs):
        if model == "rayleigh":
            raise ValueError("bad cell, with a comma")
        return run_ensemble(params, model, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_ensemble", failing)
    code, out = _run(tmp_path, "simulate", "--rho", "0.019", "--psi-db", "15", "--trials", "2",
                     "--big-m", "2")
    assert code == 0
    text = out.read_bytes().decode()
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert {len(row) for row in rows} == {len(SIMULATE_HEADER)}
    assert [row[-1] for row in rows if row[5] == "error"] == ["ValueError: bad cell, with a comma"]
    rewritten = io.StringIO()
    csv.writer(rewritten, lineterminator="\n").writerows(rows)
    assert rewritten.getvalue() == text


def test_simulate_deterministic_output(tmp_path):
    args = ["simulate", "--rho", "0.008", "--psi-db", "15", "--trials", "40",
            "--seed", "3", "--big-m", "2"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_worker_count_does_not_change_output(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    args = ["simulate", "--rho", "0.008", "--psi-db", "15", "--trials", "30",
            "--seed", "5", "--big-m", "2", "--model", "rayleigh"]
    out1 = tmp_path / "w1.csv"
    out3 = tmp_path / "w3.csv"
    assert main([*args, "--workers", "1", "--out", str(out1)]) == 0
    assert main([*args, "--workers", "3", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out3.read_bytes()


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_pool_gives_the_serial_bytes_under_every_start_method(tmp_path, method):
    # a fresh interpreter, since the start method is set once per process;
    # spawned and forkserver workers import the package anew
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    args = ["simulate", "--rho", "0.01:0.03:0.005", "--decider", "both", "--trials", "4",
            "--seed", "1"]
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert main([*args, "--workers", "1", "--out", str(serial)]) == 0
    script = (f"import multiprocessing, os, sys; multiprocessing.set_start_method({method!r}); "
              "os.cpu_count = lambda: 2; from vanetconn.cli import main; "
              f"code = main({[*args, '--workers', '2', '--out', str(pooled)]!r}); "
              "assert 'concurrent.futures.process' in sys.modules, 'no pool opened'; "
              "sys.exit(code)")
    proc = _fresh_python("-c", script, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert pooled.read_bytes() == serial.read_bytes()


def test_simulate_row_structure(tmp_path):
    code, out = _run(tmp_path, "simulate", "--rho", "0.006,0.01", "--psi-db", "15",
                     "--trials", "25", "--seed", "2", "--big-m", "3",
                     "--decider", "both")
    assert code == 0
    rows = _read(out)
    # grid order then model order, fixed metric block per cell
    metrics = ["network_connectivity", "vehicle_connectivity_one_side",
               "vehicle_connectivity_two_side", "mean_node_degree",
               "single_link_m1", "single_link_m2", "single_link_m3"]
    assert [r["metric"] for r in rows[: len(metrics)]] == metrics
    assert rows[0]["model"] == "unit_disc"
    assert rows[len(metrics)]["model"] == "rayleigh"
    assert rows[2 * len(metrics)]["rho"] == "0.01"
    for r in rows:
        assert r["decider_mismatches"] == "0"
        assert r["error"] == ""
        assert float(r["ci_lo"]) <= float(r["estimate"]) <= float(r["ci_hi"])
    n_by_rho = {r["rho"]: r["n_vehicles"] for r in rows}
    assert n_by_rho == {"0.006": "60", "0.01": "100"}


def test_density_sweep_preset_grid(tmp_path):
    code, out = _run(tmp_path, "simulate", "--preset", "density-sweep", "--trials", "2", "--seed", "1",
                     "--big-m", "1")
    assert code == 0
    rows = _read(out)
    rhos = sorted({float(r["rho"]) for r in rows})
    assert rhos == [round(0.002 + 0.004 * k, 3) for k in range(8)]
    assert {r["psi_db"] for r in rows} == {"5", "15"}
    assert {r["model"] for r in rows} == {"unit_disc", "rayleigh"}


@pytest.mark.parametrize("flag, value", [
    ("--rho", "0.5"),
    ("--psi-db", "5"),
    ("--model", "unit_disc"),
])
def test_preset_excludes_grid_flags(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--preset", "density-sweep", flag, value, "--trials", "1",
              "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "x.csv").exists()


def test_closed_stdout_exits_without_traceback():
    # ~1 MB of rows, far past a pipe's buffer, so the writer is still
    # writing when the reader goes away after the header
    proc = _fresh_python("-m", "vanetconn", "analytic", "--model", "unit_disc",
                         "--rho", "0.001:0.2:0.001", "--psi-db", "15", "--big-m", "50",
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert header.startswith(b"model,rho,psi_db,")
    assert err == b""


def test_out_of_memory_exits_without_traceback():
    # 10^13 vehicles ask numpy for about 73 TiB of headways; under a 3 GiB
    # address-space limit that allocation fails before any page is touched
    script = ("import os, resource, sys; os.environ['OPENBLAS_NUM_THREADS'] = '1'; "
              "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
              "from vanetconn.cli import main; "
              "sys.exit(main(['simulate', '--rho', '1', '--length-m', '1e13', '--psi-db', '15', "
              "'--trials', '1']))")
    proc = _fresh_python("-c", script, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1, err
    assert err.startswith("vanetconn: ") and len(err.splitlines()) == 1, err


def test_unit_disc_first_link_is_the_one_side_connectivity(tmp_path):
    # rho lam ~ 1.4e-17: 1 - e^-x rounds to 0, -expm1(-x) does not
    code, out = _run(tmp_path, "analytic", "--rho", "0.001", "--psi-db", "340",
                     "--model", "unit_disc", "--big-m", "1")
    assert code == 0
    rows = {r["metric"]: r["value"] for r in _read(out)}
    assert rows["p_single_link"] == rows["p_vehicle_one_side"] == "1.41253754462e-17"


def test_stdout_output(capsys):
    assert main(["analytic", "--rho", "0.019", "--psi-db", "15", "--big-m", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("model,rho,psi_db,m_or_M,metric,value")
