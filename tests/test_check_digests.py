import hashlib
import importlib.util
import json
import os
from pathlib import Path

from vanetconn import cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "check_digests.py"
spec = importlib.util.spec_from_file_location("check_digests", TOOL)
check_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_digests)

COMMAND = "analytic --rho 0.019 --psi-db 15 --big-m 2"


def test_checks_a_command_against_its_digest(tmp_path, monkeypatch, capsys):
    # the CSV written in process is the one the script's fresh interpreter
    # must hash to; any other digest fails
    csv = tmp_path / "out.csv"
    assert cli.main([*COMMAND.split(), "--out", str(csv)]) == 0
    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({COMMAND: digest}))
    assert check_digests.main([str(digests)]) == 0
    assert capsys.readouterr().out == f"{COMMAND}: expected {digest}, got {digest}\n"
    digests.write_text(json.dumps({COMMAND: "0" * 64}))
    assert check_digests.main([str(digests)]) == 1
    assert capsys.readouterr().out == f"{COMMAND}: expected {'0' * 64}, got {digest}\n"
