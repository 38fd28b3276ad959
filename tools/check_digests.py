"""Check that every recorded command still writes its recorded CSV bytes, and nothing to stderr.

    python tools/check_digests.py [DIGESTS]

DIGESTS (default ``bench/digests.json``) maps a ``vanetconn`` command line
to the SHA-256 of the CSV it writes to stdout.  Each command runs as
``python -m vanetconn`` under this interpreter, so it checks the package
that interpreter imports.  One line a command gives the expected and the
actual digest, followed by whatever the command wrote to stderr.  The exit
status is 1 when any digest differs, any command exits non-zero or writes
to stderr (a warning that still exits 0 fails too), and 0 otherwise.  The
file is only read.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path


def check(digests: Path) -> bool:
    """Run every command of ``digests``; whether all kept their digest, exit 0 and empty stderr."""
    ok = True
    for command, expected in json.loads(digests.read_text()).items():
        run = subprocess.run([sys.executable, "-m", "vanetconn", *command.split()],
                             capture_output=True)
        actual = hashlib.sha256(run.stdout).hexdigest()
        print(f"{command}: expected {expected}, got {actual}")
        print(run.stderr.decode(errors="replace"), end="")
        ok &= actual == expected and run.returncode == 0 and not run.stderr
    return ok


def main(argv: list[str]) -> int:
    return 0 if check(Path(argv[0] if argv else "bench/digests.json")) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
