"""Record what the CLI writes for a fixed set of argvs, so that two
checkouts can be compared byte for byte.

For each argv, one fresh ``python -m newtonformer`` process runs in its
own directory under OUT_DIR, with ``OPENBLAS_NUM_THREADS=1`` and the
default ``--out-dir .``, so its CSV lands there and every path it
prints is relative.  Beside the CSV the directory gets ``stdout``,
``stderr`` and ``exit_code``.  Run it once per checkout and compare::

    python tests/cli_outputs.py /tmp/new
    python tests/cli_outputs.py /tmp/old path/to/other/checkout/src
    diff -r /tmp/old /tmp/new

The optional second argument is the ``src`` directory whose package
runs; it defaults to this checkout's.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ARGVS = (
    ("logreg",),
    ("logreg", "--d", "5", "--n", "26", "--mu", "0.1", "--eps", "5e-3",
     "--t-max", "15"),
    ("logreg", "--mu", "0.3"),
    ("logreg", "--mu", "1.0", "--seed", "3"),
    ("logreg", "--d", "10", "--n", "200", "--t-max", "30"),
    ("logreg", "--d", "1", "--n", "1", "--kappa", "1", "--t-max", "4"),
    ("logreg", "--seed", "7", "--d", "3", "--n", "9"),
    ("logreg", "--t-max", "0"),
    ("linreg",),
    ("linreg", "--d", "10", "--n", "50", "--kappa", "100", "--t-max", "30",
     "--batch", "16"),
    ("linreg", "--mu", "0.37", "--seed", "4"),
    ("linreg", "--d", "1", "--n", "3", "--kappa", "1", "--t-max", "5"),
    ("linreg", "--orders", "2,9"),
    ("invert",),
    ("budget",),
    ("budget", "--eps", "5e-3"),
    ("scan-decrease",),
    ("scan-decrease", "--grid-x", "50"),
    ("linreg", "--mu", "1e308"),  # a named error: exit code 1
)


def record(out_dir, argvs=ARGVS, src=SRC):
    """Run each argv from its own directory under *out_dir*, named by
    its index and its tokens, and write its stdout, stderr and exit code
    there; returns the directories."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    cases = []
    for index, argv in enumerate(argvs):
        case = Path(out_dir) / f"{index:02d}_{'_'.join(argv)}"
        case.mkdir(parents=True)
        done = subprocess.run([sys.executable, "-m", "newtonformer", *argv],
                              cwd=case, env=env, capture_output=True)
        (case / "stdout").write_bytes(done.stdout)
        (case / "stderr").write_bytes(done.stderr)
        (case / "exit_code").write_text(f"{done.returncode}\n")
        cases.append(case)
    return cases


def main():
    args = sys.argv[1:]
    if len(args) not in (1, 2):
        print("usage: cli_outputs.py OUT_DIR [SRC_DIR]", file=sys.stderr)
        return 2
    record(args[0], src=Path(args[1]).resolve() if args[1:] else SRC)
    return 0


if __name__ == "__main__":
    sys.exit(main())
