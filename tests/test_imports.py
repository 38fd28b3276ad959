"""Which modules each entry point imports, checked in fresh interpreters.

Neither command loads a scipy module or ``numpy.polynomial``, and nothing at
run time needs ``mpmath``: the closed forms integrate with numpy alone, on a
Gauss–Legendre rule tabulated in ``vanetconn.numerics``.  Neither a serial
``simulate`` nor ``analytic``, whatever its models, imports a module once its
arguments are parsed, so no import lands inside the computation.  Only a pool
of two or more processes loads ``concurrent.futures.process`` and with it
``multiprocessing``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BACKENDS = ("scipy.integrate", "scipy.sparse.csgraph", "mpmath", "numpy.polynomial")
POOL = ("concurrent.futures.process", "multiprocessing")

# loaded(): which of BACKENDS, POOL, scipy itself and vanetconn.numerics this
# interpreter holds
_PRELUDE = f"""
import json, sys
def loaded():
    return sorted(m for m in {BACKENDS + POOL + ("scipy", "vanetconn.numerics")!r}
                  if m in sys.modules)
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


def _run_cli(argv: list[str]) -> dict:
    """``cli.main(argv)`` in a fresh interpreter: its exit code, loaded() once
    the arguments are parsed and at exit, and the modules imported in between."""
    return _run(f"""
        import argparse
        marks = {{}}
        parse_args = argparse.ArgumentParser.parse_args

        def stamped(self, *args, **kwargs):
            namespace = parse_args(self, *args, **kwargs)
            if "parsed" not in marks:
                marks["parsed"] = loaded()
                marks["modules"] = set(sys.modules)
            return namespace

        argparse.ArgumentParser.parse_args = stamped
        from vanetconn import cli
        marks["code"] = cli.main({argv!r})
        marks["exit"] = loaded()
        marks["imported_after_parse"] = sorted(set(sys.modules) - marks.pop("modules"))
        print(json.dumps(marks))
    """)


@pytest.mark.parametrize("command, at_parse, absent", [
    ("simulate", [], ["mpmath", "scipy", "numpy.polynomial"]),
    ("analytic", [], ["mpmath", "scipy", "numpy.polynomial"]),
])
def test_cli_loads_its_command_backend_while_parsing(command, at_parse, absent):
    # neither command has a backend left to import while parsing
    marks = _run_cli([command, "--rho", "0.019", "--psi-db", "15", "--big-m", "2",
                      *(["--trials", "2"] if command == "simulate" else []),
                      "--out", os.devnull])
    assert marks["code"] == 0
    assert set(at_parse) <= set(marks["parsed"])
    assert not set(absent) & set(marks["exit"])


@pytest.mark.parametrize("args", [
    ["--rho", "0.019", "--psi-db", "15", "--model", "unit_disc"],
    ["--rho", "0.019", "--psi-db", "15", "--decider", "eigen"],
    ["--rho", "0.019", "--psi-db", "15", "--model", "unit_disc", "--decider", "both"],
    ["--rho", "0.019", "--psi-db", "15", "--model", "rayleigh", "--decider", "both"],
    ["--rho", "0.019", "--psi-db", "15", "--model", "both"],
    # a preset runs both models
    ["--preset", "density-sweep", "--length-m", "500"],
    # a pool of two processes, where the host has two cores
    ["--rho", "0.019", "--psi-db", "15", "--decider", "both", "--workers", "2"],
])
def test_simulate_loads_no_scipy_module(args):
    marks = _run_cli(["simulate", *args, "--big-m", "2", "--trials", "2", "--out", os.devnull])
    assert marks["code"] == 0
    assert not [m for m in marks["parsed"] + marks["exit"] if m.startswith("scipy")]


@pytest.mark.parametrize("args", [
    ["--decider", "components"],
    ["--decider", "eigen"],
    ["--decider", "both"],
    ["--model", "unit_disc"],
])
def test_serial_simulate_imports_nothing_after_parsing(args):
    # a module imported after parse_args returns is timed as computation
    marks = _run_cli(["simulate", "--rho", "0.019", "--psi-db", "15", *args,
                      "--big-m", "2", "--trials", "2", "--out", os.devnull])
    assert marks["code"] == 0
    assert marks["imported_after_parse"] == []


@pytest.mark.parametrize("model", ["both", "rayleigh", "unit_disc"])
def test_analytic_imports_nothing_after_parsing(model):
    # a module imported after parse_args returns is timed as computation; the
    # quadrature's rule is tabulated, and the closed forms and the row writer
    # import nothing either
    marks = _run_cli(["analytic", "--rho", "0.006,0.019", "--psi-db", "0,15", "--model", model,
                      "--out", os.devnull])
    assert marks["code"] == 0
    assert marks["imported_after_parse"] == []


@pytest.mark.parametrize("args", [
    ["--model", "rayleigh"],
    ["--model", "unit_disc"],
    ["--model", "both", "--alpha", "3", "--big-m", "12"],
])
def test_analytic_loads_no_scipy_module(args):
    marks = _run_cli(["analytic", "--rho", "0.006,0.019", "--psi-db", "0,15", *args,
                      "--out", os.devnull])
    assert marks["code"] == 0
    assert not [m for m in marks["parsed"] + marks["exit"] if m.startswith("scipy")]


@pytest.mark.parametrize("args", [
    ["--decider", "both"],
    ["--model", "unit_disc"],
    ["--decider", "both", "--workers", "2"],
])
def test_simulate_never_loads_numpy_polynomial(args):
    # no command loads it: the Gauss–Legendre rule is tabulated
    marks = _run_cli(["simulate", "--rho", "0.019", "--psi-db", "15", *args,
                      "--big-m", "2", "--trials", "2", "--out", os.devnull])
    assert marks["code"] == 0
    assert "numpy.polynomial" not in marks["parsed"] + marks["exit"]


@pytest.mark.parametrize("argv, pool", [
    (["analytic", "--big-m", "2"], False),
    (["simulate", "--big-m", "2", "--trials", "2"], False),
    (["simulate", "--big-m", "2", "--trials", "2", "--decider", "both", "--model", "rayleigh"],
     False),
    # a pool of two processes where the host has two cores, else serial
    (["simulate", "--big-m", "2", "--trials", "2", "--workers", "2"], (os.cpu_count() or 1) > 1),
], ids=["analytic", "serial", "serial-both-deciders", "workers-2"])
def test_only_a_process_pool_loads_multiprocessing(argv, pool):
    marks = _run_cli([*argv, "--rho", "0.019", "--psi-db", "15", "--out", os.devnull])
    assert marks["code"] == 0
    assert not set(POOL) & set(marks["parsed"])
    assert (set(POOL) <= set(marks["exit"])) == pool
