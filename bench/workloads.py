"""The benchmark's workloads and the checks on their CSV outputs.

Each workload is one ``newtonformer`` CLI invocation; the benchmark adds
``--seed`` and ``--out-dir``.  The checks use tolerances rather than
byte equality with a stored file, so a change that reorders
floating-point work still passes, while two calls with the same seed
must still write identical bytes.
"""

import csv
import io
import math
from dataclasses import dataclass

# The constructed linreg root-mean-square error must match the order-2
# hyperpower oracle's to LINREG_REL_TOL relative plus LINREG_ABS_TOL.
# The gap between two RMS errors is at most the largest gap between the
# two predictions, so the absolute part admits prediction roundoff: over
# seeds 0-39 and 100-159 the gap exceeded the relative part by at most
# 3.1e-13.  A purely relative test on the mse fails on roundoff once the
# mse nears 1e-12: seed 101 gives 1.23e-8 relative at t=19.
LINREG_REL_TOL = 1e-8
LINREG_ABS_TOL = 1e-11
# The last constructed step of logreg must be this close to the optimum.
LOGREG_FINAL_GSUB = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    csv_name: str
    # Attention calls a linear-in-depth harness needs per CLI call; None
    # when every call the program makes is needed.
    useful_attention: object
    # Traced keys and modules that must record at least one span.
    required_spans: tuple
    required_modules: tuple
    # Whether call times are scaled by the calibration kernel (see
    # run.py).  The kernel is interpreter-bound, as linreg_depth's calls
    # are.  The logreg calls spend much of their time in large BLAS
    # products, which the host's speed swings slow differently: scaled,
    # the run_s spread over runs of a 256-token logreg call was 22%,
    # against 7% unscaled.
    calibrated: bool
    # Largest allowed gap between the constructed and exact-Newton loss.
    f_tol: float = 0.0


_LINREG_BATCH, _LINREG_T_MAX = 16, 30

WORKLOADS = {
    w.name: w
    for w in (
        # Attention-only; the harness rebuilds and replays the model for
        # every depth t.  Per prompt a linear-in-depth harness needs one
        # init layer, t_max shared Newton layers, and a contract and a
        # readout layer per depth.
        Workload(
            name="linreg_depth",
            argv=("linreg", "--d", "10", "--n", "50", "--kappa", "100",
                  "--t-max", str(_LINREG_T_MAX),
                  "--batch", str(_LINREG_BATCH)),
            csv_name="linreg.csv",
            useful_attention=_LINREG_BATCH * (1 + 3 * _LINREG_T_MAX),
            required_spans=("transformer.attention_forward",
                            "builders.build_linreg_transformer",
                            "inversion.hyperpower_step"),
            required_modules=("cli", "harness", "datagen", "builders",
                              "transformer", "inversion", "linalg"),
            calibrated=True,
        ),
        # Construction- and weight-bound: 192 MB of dense FFN weights,
        # dominated by layer 1's quarter-square product.
        Workload(
            name="logreg_fine",
            argv=("logreg", "--d", "5", "--n", "26", "--mu", "0.1",
                  "--eps", "5e-3", "--t-max", "15"),
            csv_name="logreg.csv",
            useful_attention=None,
            required_spans=("transformer.attention_forward",
                            "transformer.ffn_forward"),
            required_modules=("cli", "harness", "datagen", "builders", "pwl",
                              "transformer", "logistic", "linalg"),
            calibrated=False,
            f_tol=5e-3,
        ),
    )
}


def _read_rows(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("no data rows")
    for row in rows:
        for key, value in row.items():
            if key != "method" and not math.isfinite(float(value)):
                raise ValueError(f"non-finite {key} in row {row}")
    return rows


def _check_linreg(rows, workload):
    constructed, oracle = {}, {}
    for row in rows:
        if row["method"] == "constructed":
            constructed[int(row["steps"])] = float(row["mse"])
        elif row["method"] == "newton_order_2":
            oracle[int(row["steps"])] = float(row["mse"])
    if not constructed or constructed.keys() != oracle.keys():
        raise ValueError("constructed and newton_order_2 depths differ")
    for t, ref in oracle.items():
        rms, ref_rms = math.sqrt(constructed[t]), math.sqrt(ref)
        if not abs(rms - ref_rms) <= LINREG_REL_TOL * ref_rms + LINREG_ABS_TOL:
            raise ValueError(
                f"t={t}: constructed mse {constructed[t]!r} is off "
                f"newton_order_2 {ref!r} by {abs(rms - ref_rms):.3g} in rms"
            )


def _check_logreg(rows, workload):
    f = {"constructed": {}, "exact_newton": {}}
    last_gsub = None
    for row in rows:
        if row["method"] in f:
            f[row["method"]][int(row["step"])] = float(row["f"])
        if row["method"] == "constructed":
            last_gsub = float(row["g_suboptimality"])
    if not f["constructed"] or f["constructed"].keys() != f["exact_newton"].keys():
        raise ValueError("constructed and exact_newton steps differ")
    for step, ref in f["exact_newton"].items():
        gap = abs(f["constructed"][step] - ref)
        if not gap <= workload.f_tol:
            raise ValueError(
                f"step {step}: constructed f is {gap:.3g} from exact_newton, "
                f"over eps={workload.f_tol}"
            )
    if not last_gsub <= LOGREG_FINAL_GSUB:
        raise ValueError(
            f"final constructed g_suboptimality {last_gsub!r} exceeds "
            f"{LOGREG_FINAL_GSUB}"
        )


def check_output(workload, text, reference=None):
    """Return None when *text* is a correct CSV for *workload*, else why not.

    With *reference*, the text must also equal it byte for byte.
    """
    try:
        rows = _read_rows(text)
        if workload.argv[0] == "linreg":
            _check_linreg(rows, workload)
        else:
            _check_logreg(rows, workload)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{workload.csv_name}: {exc}"
    if reference is not None and text != reference:
        return f"{workload.csv_name} differs from the first call's bytes"
    return None


def corrupt_row(text):
    """Add 1.0 to every value after the third column of the first
    constructed row: the fault the self-check injects."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == "constructed":
            fields[3:] = [repr(float(v) + 1.0) for v in fields[3:]]
            lines[i] = ",".join(fields)
            return "\n".join(lines)
    raise ValueError("no constructed row to corrupt")
