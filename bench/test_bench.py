"""Tests of the benchmark itself: ``python -m pytest bench``.

Runs the benchmark's smoke mode (every workload at a tiny size, traced and
untraced), which fails unless every metric in BENCHMARK.json is emitted with
its unit and the output checks ran, and checks that the benchmark refuses to
produce a result without the package source next to it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def test_smoke_mode_emits_every_metric_and_runs_the_checks():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.rstrip().endswith("smoke ok")


def test_without_the_package_source_no_result_is_printed(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
