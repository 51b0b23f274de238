"""sha256 of the twrelay outputs that pin the package's results bit for bit.

Runs the `twrelay` command of the tree this file sits in (its src/
directory first on PYTHONPATH) and prints one line per output, the hash
and a label:

    python tools/output_hashes.py

The outputs are the default sweep, the --seed 3 sweep, the --seed 11
sweep started from PNC, the solve JSON of a 5,000-state draw (seed 3) at
lambda 1, that of a 50,000-state draw (seed 1) at lambda 1 and 0.01, and
the validate text. Every file goes to a temporary directory, removed at
the end; a run takes about 15 s on a 2-core Xeon.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


# (label, arguments); the files named are made in the working directory
RUNS = [
    ("sweep (default)", "sweep"),
    ("sweep --seed 3", "sweep --seed 3"),
    ("sweep --seed 11, init_mode pnc", "sweep --config pnc.json --seed 11"),
    ("solve 5k seed 3, lambda 1", "solve --states s5k.csv --lambda 1"),
    ("solve 50k seed 1, lambda 1", "solve --states s50k.csv --lambda 1"),
    ("solve 50k seed 1, lambda 0.01", "solve --states s50k.csv --lambda 0.01"),
    ("validate", "validate"),
]


def twrelay(cwd: str, args: str) -> None:
    """Run the command in `cwd`; exit 1 is a failed validate check, whose text is hashed too."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    rc = subprocess.run([sys.executable, "-m", "twrelay", *args.split()], cwd=cwd,
                        env=env).returncode
    if rc not in (0, 1):
        raise SystemExit(f"twrelay {args} exited with {rc}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "pnc.json").write_text(json.dumps({"init_mode": "pnc"}))
        twrelay(tmp, "sample --n-states 5000 --seed 3 --out s5k.csv")
        twrelay(tmp, "sample --n-states 50000 --seed 1 --out s50k.csv")
        for label, args in RUNS:
            twrelay(tmp, f"{args} --out out")
            print(hashlib.sha256(Path(tmp, "out").read_bytes()).hexdigest(), label)


if __name__ == "__main__":
    main()
