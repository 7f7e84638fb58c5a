"""Hash the files that the command-line runs write, to compare two checkouts.

Each run is a fresh ``python -m cyclemarket.cli`` process with
``PYTHONPATH=<checkout>/src`` and ``OPENBLAS_NUM_THREADS=1``, writing into a
temporary directory:

- ``run`` on the bundled fixture, aware and unaware;
- ``run`` on the four-unit roster (generators c = 20, and c = 35 with a = 5;
  four 50 MWh units at B = 100, 150, 250 and 400), aware and unaware;
- ``run`` on ``cap812.json`` (one generator capped at 812 MW, so that phase 1
  finds the start);
- ``sweep`` over B = 100, 250 and 400.

It prints one SHA-256 per written file, for the checkout this script lives
in.  With ``--against DIR`` it runs the same in the checkout at DIR and then
lists the files whose bytes differ, exiting 1 if any do.

    python tools/byte_gate.py [--against DIR]
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]

CONFIGS = {
    "pool.json": {"generators": [{"c": 20}, {"c": 35, "a": 5}],
                  "storages": [{"capacity_E": 50, "capital_cost_B": b}
                               for b in (100, 150, 250, 400)]},
    "cap812.json": {"generators": [{"c": 20, "g_max": 812}], "storages": [{"capacity_E": 50}]},
    "sweep.json": {"axis": "B", "values": [100, 250, 400]},
}

# (output directory, command-line arguments)
RUNS = [
    ("fixture_aware", ["run", "--mode", "aware"]),
    ("fixture_unaware", ["run", "--mode", "unaware"]),
    ("pool_aware", ["run", "--mode", "aware", "--config", "pool.json"]),
    ("pool_unaware", ["run", "--mode", "unaware", "--config", "pool.json"]),
    ("cap812", ["run", "--mode", "aware", "--config", "cap812.json"]),
    ("sweep_B", ["sweep", "--spec", "sweep.json"]),
]


def digests(checkout):
    """{"<run>/<file>": SHA-256} of every file the runs write with ``checkout``'s code."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"),
               OPENBLAS_NUM_THREADS="1")
    found = {}
    with tempfile.TemporaryDirectory() as work:
        for name, doc in CONFIGS.items():
            Path(work, name).write_text(json.dumps(doc), encoding="utf-8")
        for out, args in RUNS:
            subprocess.run([sys.executable, "-m", "cyclemarket.cli", *args, "--out", out],
                           cwd=work, env=env, check=True)
            for path in sorted(Path(work, out).iterdir()):
                found[f"{out}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--against", help="another checkout to run and compare with")
    args = parser.parse_args(argv)
    here = digests(CHECKOUT)
    for name, digest in here.items():
        print(f"{digest}  {name}")
    if args.against is None:
        return 0
    there = digests(args.against)
    differ = sorted(name for name in here.keys() | there.keys()
                    if here.get(name) != there.get(name))
    print(f"{len(differ)} of {len(here.keys() | there.keys())} files differ from {args.against}")
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
