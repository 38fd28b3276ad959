"""Benchmark of the vanetconn CLI: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from anywhere; the package is imported from the ``src`` directory next to
this one, and scratch files go to ``.bench_out`` there.

Each workload is one CLI command line run closed-loop: a fresh interpreter
runs the command, and the next one starts when it has exited, until
``--seconds`` have passed (at least one run).  The seed is passed to the
simulate commands as ``--seed``; the analytic grid has no randomness and the
same inputs at every seed.  ``BENCHMARK.json`` lists ``long-road`` and
``analytic-grid``, which between them run every layer.  ``density-sweep``
and ``parallel-check`` run many small multi-threaded eigensolves, and their
run-to-run spread on a 2-vCPU shared host (10-20 %) was too wide to gate on,
so they are for manual runs and the smoke test only.

With ``--trace 0`` the end-to-end metrics are printed: ``setup_s`` (launch to
the end of ``import vanetconn`` and argument parsing, median over every
launch, including one launch that stops there), ``points_per_s`` ((rho, psi)
grid points finished per second after setup, median over runs) and
``peak_rss_mib`` (peak resident memory of the CLI process plus its largest
pool worker, median over runs).  The two times are corrected for the host
speed that ``SpeedProbe`` measures during the same run; the uncorrected
values are printed as ``raw_setup_s`` and ``raw_points_per_s``.
``trials_per_s`` and ``error_frac`` are printed with them for reading; they
are not separate metrics in the final line, because trials per grid point
are fixed per workload and every failure already shows in
``failed``/``attempted`` and makes ``correct`` false.

With ``--trace 1`` untraced and traced runs alternate.  The traced runs wrap
each layer's public functions (see ``spans.py``) and give the per-layer
metrics, medians over the traced runs; ``trace.throughput_ratio`` is traced
over untraced ``points_per_s``, and ``numerics.import_s`` comes from
``python -X importtime``.

Output checks, on every run: exit code 0, no ``error`` rows, every
``decider_mismatches`` entry 0, the same CSV bytes from every run of the
command, and at seed 1 the SHA-256 recorded in ``digests.json`` from the
package before any optimisation.  On the analytic grid each
``p_single_link_closed`` must match the Rayleigh ``p_single_link`` of the same
row key within a relative 1e-8.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (grid cells, i.e. (grid point, model) pairs, run),
``failed`` (``error`` rows plus non-zero exits) and ``metrics``.  The
environment (cores, library versions, BLAS build, thread variables as found)
is printed before it and stored with the full result in
``.bench_out/<workload>-s<seed>-t<trace>/result.json``.

``--smoke`` runs every workload at a tiny size in both modes and fails unless
every metric named in ``BENCHMARK.json`` is emitted with its unit and the
output checks ran.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
RUN_LIMIT_S = 170.0  # every run of this script ends within 180 s
CLOSED_FORM_RTOL = 1e-8
# SpeedProbe time (geometric mean of its two halves) on an unloaded 2-vCPU
# Xeon (Sapphire Rapids) KVM guest; the scale of the reported times.
PROBE_REF_S = 0.0035
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "1/s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "scenario.place_ms": "ms",
    "scenario.bytes": "bytes",
    "channel.draw_ms": "ms",
    "channel.bytes": "bytes",
    "graph.build_ms": "ms",
    "graph.edges": "count",
    "graph.bytes": "bytes",
    "graph.eigen_ms": "ms",
    "graph.components_ms": "ms",
    "montecarlo.trial_self_ms": "ms",
    "montecarlo.estimate_ms": "ms",
    "montecarlo.trials": "count",
    "montecarlo.decider_mismatches": "count",
    "montecarlo.pools": "count",
    "montecarlo.pool_wait_s": "s",
    "montecarlo.worker_busy_frac": "1",
    "analytic.calls": "count",
    "analytic.closed_form_ms": "ms",
    "analytic.quad_path_ms": "ms",
    "analytic.mp_escalations": "count",
    "analytic.mp_escalation_frac": "1",
    "numerics.quad_calls": "count",
    "numerics.quad_ms": "ms",
    "numerics.quad_abserr_max": "1",
    "numerics.import_s": "s",
    "cli.self_ms": "ms",
    "cli.rows": "count",
    "trace.throughput_ratio": "1",
}


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    cells: int  # (grid point, model) pairs per run
    trials: int | None = None  # per cell; None for the analytic path
    seeded: bool = True


# Full size: each run of a simulate command takes one to a few seconds after
# setup, so that many runs fit in one measurement and their median is steady.
WORKLOADS = {
    "density-sweep": Workload(
        ("simulate", "--preset", "density-sweep", "--workers", "1", "--decider", "eigen"),
        cells=32, trials=8),
    "long-road": Workload(
        ("simulate", "--rho", "0.03", "--length-m", "66667", "--psi-db", "15",
         "--model", "both", "--workers", "1"),
        cells=2, trials=1),
    "parallel-check": Workload(
        ("simulate", "--rho", "0.01:0.03:0.005", "--decider", "both", "--workers", "2"),
        cells=20, trials=4),
    "analytic-grid": Workload(
        ("analytic", "--rho", "0.002:0.03:0.002", "--psi-db", "0:20:2"),
        cells=330, seeded=False),
}
SMOKE_WORKLOADS = {
    "density-sweep": Workload(WORKLOADS["density-sweep"].argv, cells=32, trials=1),
    "long-road": WORKLOADS["long-road"],
    "parallel-check": Workload(WORKLOADS["parallel-check"].argv, cells=20, trials=2),
    "analytic-grid": Workload(("analytic", "--rho", "0.026:0.03:0.002", "--psi-db", "0:4:2"),
                              cells=18, seeded=False),
}


def command_line(workload: Workload, seed: int) -> list[str]:
    argv = list(workload.argv)
    if workload.trials is not None:
        argv += ["--trials", str(workload.trials)]
    if workload.seeded:
        argv += ["--seed", str(seed)]
    return argv


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class SpeedProbe:
    """Times a fixed Python loop and a fixed eigensolve after every launch.

    The speed of a small shared host drifts by up to 1.7x over minutes as
    other guests load it.  The workloads' times move with the probe's time to
    about the power 0.5 (a log-log fit over 90 density-sweep and 16
    analytic-grid runs gave 0.4 to 0.6), so time-based metrics are rescaled
    by the square root of the run's median probe time over PROBE_REF_S.
    """

    def __init__(self):
        import numpy

        self.eigvalsh = numpy.linalg.eigvalsh
        a = numpy.random.default_rng(0).random((200, 200))
        self.matrix = a + a.T
        self.samples: list[float] = []

    def sample(self, repeats: int = 8) -> None:
        loop, eigen = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            total = 0
            for i in range(100_000):
                total += i * i
            t1 = time.perf_counter()
            self.eigvalsh(self.matrix)
            loop.append(t1 - t0)
            eigen.append(time.perf_counter() - t1)
        self.samples.append(math.sqrt(statistics.median(loop) * statistics.median(eigen)))

    def speed(self) -> float:
        """Correction for host speed: >1 on a faster host, <1 on a slower one."""
        return math.sqrt(PROBE_REF_S / statistics.median(self.samples))


class Runner:
    """Launches children for one benchmark run and stops each before returning."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = child_env()
        self.launches = 0
        self.probe = SpeedProbe()

    def _wait(self, cmd: list[str]) -> tuple[int, str]:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark time limit reached")
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise TimeoutError(f"{' '.join(cmd[1:4])} did not finish in time") from None
        return proc.returncode, err

    def launch(self, mode: str, argv: list[str], trace: bool = False) -> dict:
        """One child; returns its report plus launch-relative timings."""
        self.launches += 1
        tag = f"{self.launches:03d}"
        report = self.run_dir / f"report-{tag}.json"
        csv_path = self.run_dir / f"out-{tag}.csv"
        trace_dir = str(self.run_dir) if trace else "-"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(report), mode, trace_dir, tag,
               *argv, "--out", str(csv_path)]
        t0 = time.monotonic()
        code, err = self._wait(cmd)
        data = json.loads(report.read_text()) if report.exists() else {}
        data.update(tag=tag, returncode=code, stderr=err[-2000:], csv=csv_path, trace=trace)
        if "setup_end" in data:
            data["setup_s"] = data["setup_end"] - t0
        if "end" in data and "setup_end" in data:
            data["compute_s"] = data["end"] - data["setup_end"]
        self.probe.sample()
        return data

    def import_time(self) -> float:
        """Cumulative import time of vanetconn.numerics (scipy.integrate included)."""
        code, err = self._wait([sys.executable, "-X", "importtime", "-c", "import vanetconn"])
        if code != 0:
            raise RuntimeError(f"import vanetconn failed: {err[-500:]}")
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "vanetconn.numerics":
                return int(parts[1]) / 1e6
        raise RuntimeError("vanetconn.numerics missing from -X importtime output")


def read_csv(path: Path) -> tuple[bytes, list[dict]]:
    data = path.read_bytes()
    return data, list(csv.DictReader(data.decode().splitlines()))


def check_rows(rows: list[dict], analytic: bool) -> tuple[list[str], int, int]:
    """Problems found, error rows and decider mismatches of one CSV."""
    problems = []
    errors = sum(1 for r in rows if r.get("metric") == "error")
    if errors:
        problems.append(f"{errors} error rows")
    mismatches = 0
    if not analytic:
        cells = {(r["model"], r["rho"], r["psi_db"]): r["decider_mismatches"] for r in rows}
        mismatches = sum(int(v) for v in cells.values() if v)
        if mismatches:
            problems.append(f"{mismatches} decider mismatches")
    else:
        quad = {(r["rho"], r["psi_db"], r["m_or_M"]): r["value"] for r in rows
                if r["model"] == "rayleigh" and r["metric"] == "p_single_link"}
        closed = [r for r in rows if r["metric"] == "p_single_link_closed"]
        if not closed:
            problems.append("no p_single_link_closed rows")
        for r in closed:
            key = (r["rho"], r["psi_db"], r["m_or_M"])
            try:
                a, b = float(r["value"]), float(quad[key])
            except (KeyError, ValueError):
                problems.append(f"closed form {key}: {r['value']!r} has no quadrature match")
                continue
            if abs(a - b) > CLOSED_FORM_RTOL * abs(b):
                problems.append(f"closed form {key}: {a!r} vs quadrature {b!r}")
    return problems, errors, mismatches


def grid_points(rows: list[dict]) -> int:
    return len({(r["rho"], r["psi_db"]) for r in rows})


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def benchmark(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
              setup_launches: int, import_launches: int, recorded: dict) -> dict:
    start = time.monotonic()
    run_dir = OUT / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, start + RUN_LIMIT_S)
    argv = command_line(workload, seed)
    digest_key = " ".join(argv)

    setups = [runner.launch("setup", argv) for _ in range(setup_launches)]

    # Closed loop: start another run unless it would end more than half a
    # run past the window, so the measured time stays close to `seconds`.
    runs = []
    window_end = time.monotonic() + seconds
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(runner.launch("run", argv, trace=traced))
        last = runs[-1].get("setup_s", 0.0) + runs[-1].get("compute_s", 0.0)
        enough = not trace or any(r["trace"] for r in runs)
        if enough and time.monotonic() + 0.5 * last > window_end:
            break

    problems, checks = [], ["exit_code", "error_rows", "same_bytes_every_run"]
    failed = 0
    digests, mismatches, rows_out = set(), 0, 0
    for r in runs:
        if r["returncode"] != 0 or r.get("exit_code") != 0 or not r["csv"].exists():
            failed += 1
            problems.append(f"run {r['tag']} exited {r['returncode']}: {r['stderr'][-300:]}")
            continue
        data, rows = read_csv(r["csv"])
        found, errors, mismatches = check_rows(rows, analytic=not workload.seeded)
        failed += errors
        problems += found
        digests.add(hashlib.sha256(data).hexdigest())
        r["points"], rows_out = grid_points(rows), len(rows)
    checks.append("decider_mismatches" if workload.seeded else "closed_form_vs_quadrature")
    if len(digests) > 1:
        problems.append(f"runs of one command wrote different CSVs: {sorted(digests)}")
    if digests and (seed == DEFAULT_SEED or not workload.seeded):
        checks.append("recorded_digest")
        expected = recorded.get(digest_key)
        if expected is None:
            problems.append(f"no recorded digest for {digest_key!r}")
        elif digests != {expected}:
            problems.append(f"CSV digest {sorted(digests)} differs from recorded {expected}")

    ok_runs = [r for r in runs if "points" in r and "compute_s" in r]
    plain = [r for r in ok_runs if not r["trace"]]
    traced_runs = [r for r in ok_runs if r["trace"]]
    setup_samples = [r["setup_s"] for r in setups + plain if "setup_s" in r]
    rate = _median([r["points"] / r["compute_s"] for r in plain])
    speed = runner.probe.speed()
    trials_per_run = (workload.trials or 0) * workload.cells
    readout = {
        "trials_per_s": (_median([trials_per_run / r["compute_s"] for r in plain]) / speed,
                         "1/s"),
        "error_frac": (failed / (workload.cells * len(runs)), "1"),
        "runs": (len(plain), "count"),
        "host_speed": (speed, "1"),
        "raw_setup_s": (_median(setup_samples), "s"),
        "raw_points_per_s": (rate, "1/s"),
    }
    if trace:
        import spans

        layers = []
        for r in traced_runs:
            main_pid, recorded_spans = spans.load(run_dir, r["tag"])
            m = spans.layer_metrics(main_pid, recorded_spans)
            m["montecarlo.decider_mismatches"] = float(mismatches)
            m["cli.rows"] = float(rows_out)
            layers.append(m)
            if main_pid is None:
                problems.append(f"traced run {r['tag']} wrote no cli.main span")
            elif workload.trials and m["montecarlo.trials"] != workload.trials * workload.cells:
                problems.append(f"traced run {r['tag']} recorded {m['montecarlo.trials']:.0f} "
                                f"trials, expected {workload.trials * workload.cells}")
        checks.append("traced_trial_count")
        metrics = {k: _median([m[k] for m in layers]) for k in layers[0]} if layers else {}
        metrics["numerics.import_s"] = _median([runner.import_time()
                                                for _ in range(import_launches)])
        traced_rate = _median([r["points"] / r["compute_s"] for r in traced_runs])
        metrics["trace.throughput_ratio"] = traced_rate / rate if rate else 0.0
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": _median(setup_samples) * speed,
            "points_per_s": rate / speed,
            "peak_rss_mib": _median([(r["maxrss_self_kib"] + r["maxrss_children_kib"]) / 1024
                                     for r in plain]),
        }
        units = END_TO_END_UNITS

    if set(metrics) != set(units):
        problems.append(f"missing metrics: {sorted(set(units) - set(metrics))}")
    correct = not problems and failed == 0
    # keep the CSV of the last run and the spans of the last traced run
    for path in run_dir.glob("out-*.csv"):
        if path != runs[-1]["csv"]:
            path.unlink()
    for r in traced_runs[:-1]:
        for path in run_dir.glob(f"spans-{r['tag']}-*.json"):
            path.unlink()
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "argv": argv,
        "correct": correct,
        "attempted": workload.cells * len(runs),
        "failed": failed,
        "problems": problems,
        "checks": checks,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "readout": {k: {"value": v, "unit": u} for k, (v, u) in readout.items()},
        "samples": {
            "setup_s": setup_samples,
            "compute_s": [r["compute_s"] for r in plain],
            "traced_compute_s": [r["compute_s"] for r in traced_runs],
            "probe_s": runner.probe.samples,
        },
        "wall_s": time.monotonic() - start,
    }


def print_result(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{' '.join(result['argv'])}")
    for section in ("metrics", "readout"):
        for key, m in result[section].items():
            print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"][:10]:
        print(f"  FAILED CHECK: {problem}")
    if len(result["problems"]) > 10:
        print(f"  ... and {len(result['problems']) - 10} more failed checks")
    print(f"  checks run: {', '.join(result['checks'])}")


def final_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def smoke(recorded: dict) -> int:
    """Every workload at a tiny size, traced and untraced; checks the emitted metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for name, workload in SMOKE_WORKLOADS.items():
        for trace in (0, 1):
            result = benchmark(name, workload, DEFAULT_SEED, 0.0, bool(trace),
                               setup_launches=1, import_launches=1, recorded=recorded)
            print_result(result)
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != expected[trace]:
                failures.append(f"{name} trace {trace}: metrics {emitted} != {expected[trace]}")
            if not all(isinstance(m["value"], float) and math.isfinite(m["value"])
                       for m in result["metrics"].values()):
                failures.append(f"{name} trace {trace}: non-finite metric value")
            if "recorded_digest" not in result["checks"]:
                failures.append(f"{name} trace {trace}: digest check did not run")
            if not result["correct"]:
                failures.append(f"{name} trace {trace}: {result['problems']}")
    for failure in failures:
        print(f"SMOKE FAILED: {failure}")
    print("smoke ok" if not failures else "smoke failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the emitted metrics")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "vanetconn" / "__init__.py").is_file():
        print(f"bench: no vanetconn package under {SRC}", file=sys.stderr)
        return 2
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(recorded)

    result = benchmark(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), setup_launches=1, import_launches=3,
                       recorded=recorded)
    result["environment"] = environment()
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, default=str))
    print_result(result)
    print("environment " + json.dumps(result["environment"]))
    print(final_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
