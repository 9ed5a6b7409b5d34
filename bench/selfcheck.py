"""Self-check of the benchmark, at minimal run length (a few minutes).

    python3 bench/selfcheck.py

Runs every workload untraced and traced and asserts that each metric
``BENCHMARK.json`` names is printed with its unit.  It then corrupts one
output row of one linreg sample and asserts that the call is counted as
failed, so the error rate rises and the output checks are shown to fail.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    notes = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), notes


def _expect_metrics(result, specs, label):
    got = result["metrics"]
    want = {spec["name"]: spec["unit"] for spec in specs}
    if set(got) != set(want):
        raise SystemExit(f"{label}: metrics {sorted(got)} != {sorted(want)}")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not math.isfinite(value):
            raise SystemExit(f"{label}: {name} printed as {got[name]}, unit {unit}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, _ = _run(workload, trace)
            label = f"{workload} --trace {trace}"
            _expect_metrics(result, specs, label)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{label}: outputs failed their checks")
            print(f"ok  {label}: {len(specs)} metrics, {result['attempted']} calls")

    result, notes = _run("linreg_depth", 0, "--inject-fault", "1")
    rate = result["metrics"]["success_rate"]["value"]
    if result["correct"] or result["failed"] != 1 or rate >= 1.0:
        raise SystemExit(f"corrupted row went unnoticed: {result}")
    if "newton_order_2" not in notes["failures"][0]:
        raise SystemExit(f"unexpected failure reason: {notes['failures']}")
    print(f"ok  corrupted row: error_rate {1.0 - rate:.3f} "
          f"({result['failed']}/{result['attempted']}): {notes['failures'][0]}")


if __name__ == "__main__":
    main()
