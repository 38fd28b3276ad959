import argparse
import csv
import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vanetconn import analytic
from vanetconn.cli import _parse_value_spec, main

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


def test_analytic_closed_form_at_infinite_reach(tmp_path):
    # rho * lam overflows to inf; the quadrature rows read 1 there
    code, out = _run(tmp_path, "analytic", "--rho", "1e300", "--psi-db", "-300",
                     "--model", "rayleigh", "--big-m", "2")
    assert code == 0
    closed = [r["value"] for r in _read(out) if r["metric"] == "p_single_link_closed"]
    assert closed == ["1", "1"]


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
}


@pytest.mark.parametrize("grid", sorted(GOLDEN_ANALYTIC))
def test_analytic_matches_golden_digest(tmp_path, grid):
    code, out = _run(tmp_path, "analytic", *grid.split())
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ANALYTIC[grid]


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
    # every link probability of a point in one batch; the rows and the
    # vehicle-connectivity products read it
    calls = []
    integrate = analytic.integrate_semi_infinite

    def counting(f, upper):
        calls.append(upper.shape)
        return integrate(f, upper)

    monkeypatch.setattr(analytic, "integrate_semi_infinite", counting)
    code, _ = _run(tmp_path, "analytic", "--rho", "0.019,0.023", "--psi-db", "15",
                   "--model", "rayleigh", "--big-m", "10")
    assert code == 0
    assert calls == [(10,), (10,)]


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
