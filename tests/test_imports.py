"""Which numerical backend each entry point imports, checked in fresh interpreters.

The ensemble needs only ``scipy.sparse.csgraph``; the closed forms need
``scipy.integrate`` and ``mpmath``.  Each is imported by the module that uses
it on first use, by the CLI while it parses a command's arguments, and by the
ensemble before it opens a process pool.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BACKENDS = ("scipy.integrate", "scipy.sparse.csgraph", "mpmath")

# loaded(): which of BACKENDS (and vanetconn.numerics) this interpreter holds
_PRELUDE = f"""
import json, sys
def loaded():
    return sorted(m for m in {BACKENDS + ("vanetconn.numerics",)!r} if m in sys.modules)
"""


def _run(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + textwrap.dedent(script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_backend():
    found = _run("""
        import vanetconn
        print(json.dumps(loaded()))
    """)
    assert found == ["vanetconn.numerics"]


@pytest.mark.parametrize("command, at_parse, absent", [
    ("simulate", ["scipy.sparse.csgraph"], ["mpmath", "scipy.integrate"]),
    ("analytic", ["mpmath", "scipy.integrate"], ["scipy.sparse.csgraph"]),
])
def test_cli_loads_its_command_backend_while_parsing(command, at_parse, absent):
    marks = _run(f"""
        import argparse, os
        marks = {{}}
        parse_args = argparse.ArgumentParser.parse_args

        def stamped(self, *args, **kwargs):
            namespace = parse_args(self, *args, **kwargs)
            marks.setdefault("parsed", loaded())
            return namespace

        argparse.ArgumentParser.parse_args = stamped
        from vanetconn import cli
        code = cli.main([{command!r}, "--rho", "0.019", "--psi-db", "15", "--big-m", "2",
                         *(["--trials", "2"] if {command!r} == "simulate" else []),
                         "--out", os.devnull])
        marks["exit"] = loaded()
        marks["code"] = code
        print(json.dumps(marks))
    """)
    assert marks["code"] == 0
    assert set(at_parse) <= set(marks["parsed"])
    assert not set(absent) & set(marks["exit"])


@pytest.mark.parametrize("call", [
    "montecarlo.run_ensemble(params, montecarlo.RAYLEIGH, 4, 1, big_m=2, workers=2)",
    "montecarlo.sweep([params], montecarlo.MODELS, 4, 1, big_m=2, workers=2)",
])
def test_pool_opens_after_csgraph_is_imported(call):
    # forked workers inherit the parent's modules; a worker that had to
    # import csgraph itself would pay that import inside the ensemble
    seen = _run(f"""
        import os
        from vanetconn import ScenarioParams, montecarlo
        seen = {{"before": loaded(), "at_pool": []}}

        class RecordingPool:
            def __init__(self, max_workers):
                seen["at_pool"].append("scipy.sparse.csgraph" in sys.modules)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        os.cpu_count = lambda: 2
        montecarlo.ProcessPoolExecutor = RecordingPool
        params = ScenarioParams(rho=0.01, road_length=2000.0, tx_power=2000.0,
                                noise_power=0.01, beta=10.0, ple=2, psi=31.6)
        {call}
        print(json.dumps(seen))
    """)
    assert "scipy.sparse.csgraph" not in seen["before"]
    assert seen["at_pool"] == [True]
