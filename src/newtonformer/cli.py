"""Command-line entry point.

Five subcommands: ``invert``, ``linreg``, ``logreg`` run the CSV
experiment harness, ``budget`` prints a width/depth allocation, and
``scan-decrease`` evaluates the constant-decrease certificate grid.
Each experiment subcommand takes one flag per field its runner reads,
with the defaults of ``harness.TASK_DEFAULTS``.  ``--config`` reads the
same keys from a flat key=value file; an explicit flag wins over the
file.  Exit codes: 0 on success, 2 on budget or convergence failure, 1
on usage errors.
"""

import argparse
import sys

from .builders import width_depth_budget
from .errors import BudgetError, ConvergenceError, ScanAnomalyError
from .harness import (
    TASK_DEFAULTS,
    ExperimentConfig,
    run_invert_experiment,
    run_linreg_experiment,
    run_logreg_experiment,
)
from .logistic import scan_constant_decrease

__all__ = ["main"]

_RUNNERS = {
    "invert": run_invert_experiment,
    "linreg": run_linreg_experiment,
    "logreg": run_logreg_experiment,
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def read_config(self, path, command):
        """Set the key=value pairs of *path* as this parser's defaults.

        The values stay strings, so the next parse converts each with
        its flag's own type, and a flag given explicitly still wins.
        """
        flags = {action.dest for action in self._actions
                 if action.option_strings} - {"help", "config"}
        values = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, value = key.strip().replace("-", "_"), value.strip()
                if key == "task":
                    if value != command:
                        raise ValueError(
                            f"{path}:{lineno}: config task {value!r} "
                            f"conflicts with subcommand {command!r}"
                        )
                elif key in flags:
                    values[key] = value
                else:
                    raise ValueError(
                        f"{path}:{lineno}: config key {key!r} does not "
                        f"apply to {command!r}"
                    )
        self.set_defaults(**values)


def _parse_orders(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"orders must be comma-separated integers, got {text!r}"
        ) from None


def _add_flag(sub, name, default=argparse.SUPPRESS, **kwargs):
    sub.add_argument("--" + name.replace("_", "-"), dest=name,
                     default=default, **kwargs)


def _build_parser(command=None):
    """The top-level parser and the subcommand parsers by name.

    Every subcommand is listed, but only *command*'s parser gets its
    flags, or every parser when *command* is None: a call parses one
    subcommand's flags, so it builds only those.  The help text of
    the top level and of *command* is the same either way.

    Flags without a default are left out of the parsed namespace, so
    only the values a user set reach the library, which fills in the
    rest.
    """
    parser = _Parser(prog="newtonformer", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    for task, defaults in TASK_DEFAULTS.items():
        sub = subs.add_parser(task, help=f"run the {task} experiment")
        if command not in (None, task):
            continue
        _add_flag(sub, "config", help="flat key=value config file")
        for name, default in defaults.items():
            if isinstance(default, tuple):
                kind, shown = _parse_orders, ",".join(map(str, default))
            else:
                kind, shown = type(default), default
            _add_flag(sub, name, type=kind, help=f"default {shown}")
    # The budget defaults to the logreg experiment's eps, mu and d; the
    # piece ceiling keeps width_depth_budget's own default.
    budget = subs.add_parser("budget", help="print a width/depth budget")
    if command in (None, "budget"):
        _add_flag(budget, "config", help="flat key=value config file")
        for name in ("eps", "mu", "d"):
            default = TASK_DEFAULTS["logreg"][name]
            _add_flag(budget, name, default, type=type(default),
                      help=f"default {default}")
        _add_flag(budget, "piece_ceiling", type=int)
    scan = subs.add_parser("scan-decrease",
                           help="grid-certify the constant decrease")
    if command in (None, "scan-decrease"):
        _add_flag(scan, "grid_x", type=int)
        _add_flag(scan, "grid_c", type=int)
    return parser, subs.choices


def _dispatch(flags):
    command = flags.pop("command")
    flags.pop("config", None)
    if command in _RUNNERS:
        for path in _RUNNERS[command](ExperimentConfig(task=command, **flags)):
            print(f"wrote {path}")
        return 0
    if command == "budget":
        print(width_depth_budget(**flags).to_text())
        return 0
    maximum = scan_constant_decrease(**flags)
    print(f"max_decrease_bound {maximum:.17g}")
    return 0 if maximum <= -0.01 else 2


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _build_parser(argv[0] if argv else "")
    args = parser.parse_args(argv)
    try:
        if "config" in args:
            subparsers[args.command].read_config(args.config, args.command)
            args = parser.parse_args(argv)
        return _dispatch(vars(args))
    except (BudgetError, ConvergenceError, ScanAnomalyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
