"""One benchmark sample: a fresh interpreter making the user's CLI call.

Run by ``run.py`` as ``python child.py '<json config>'`` with
``PYTHONPATH`` set to the checkout's ``src``.  The config names the CLI
argv, one output directory per call (none: start up and exit), and
whether to trace.  Only the first call is timed; a second call, when
asked for, only has to write the same bytes.  A fixed calibration
kernel is timed just before and just after the timed call, so the
parent can tell how fast the machine ran meanwhile.  The last stdout
line is one JSON object.
"""

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

def _environment():
    import numpy
    import scipy

    import newtonformer

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    def proc_field(path, field):
        try:
            with open(path, encoding="ascii", errors="replace") as fh:
                for line in fh:
                    if line.startswith(field):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": {k: v for k, v in os.environ.items()
                         if k.endswith("_NUM_THREADS")},
        "newtonformer_file": newtonformer.__file__,
    }


def _calibrate(repeats=3):
    """Seconds each of *repeats* runs of a fixed kernel took.  The kernel
    mixes interpreter bytecode with small BLAS products and allocates
    little, so it leaves the peak RSS alone."""
    import numpy as np

    small = np.random.default_rng(0).standard_normal((32, 32))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        x = small.copy()
        for _ in range(600):
            x = small @ x
            x /= np.abs(x).max()
        total = 0
        for i in range(60_000):
            total += i & 3
        times.append(time.perf_counter() - start)
    return times


def _call(cli, argv):
    """Run cli.main once; return (seconds, error or None)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:  # a failed call is counted, not fatal
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, f"exit code {code}"
    return seconds, None


def main():
    import_start = time.perf_counter()
    from newtonformer import cli
    import_s = time.perf_counter() - import_start
    config = json.loads(sys.argv[1])
    tracer = None
    if config["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()

    result = {"ready": ready, "import_s": import_s, "errors": []}
    before, after = _calibrate(), []
    for i, out_dir in enumerate(config["out_dirs"]):
        seconds, error = _call(cli, list(config["argv"]) + ["--out-dir", out_dir])
        if i == 0:
            result["run_s"] = seconds
            after = _calibrate()
            if tracer is not None:
                result["trace"] = tracer.summary()
        if error:
            result["errors"].append(error)
    result["peak_rss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    result["calibration_s"] = statistics.median(before + after)
    result["environment"] = _environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
