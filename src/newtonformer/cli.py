"""Command-line entry point.

Five subcommands: ``invert``, ``linreg``, ``logreg`` run the CSV
experiment harness, ``budget`` prints a width/depth allocation, and
``scan-decrease`` evaluates the constant-decrease certificate grid.
One table, ``_FLAGS``, holds each one's flags and defaults and makes
the ``-h`` text.  A flag is ``--name value`` or ``--name=value``, the
last one given wins, and ``--config FILE`` reads the same keys from
key=value lines, under any explicit flag.  Exit codes: 0 on success, 2
on budget or convergence failure, 1 on usage errors.
"""

import gc
import re
import sys

from .builders import width_depth_budget
from .errors import BudgetError, ConvergenceError, ScanAnomalyError
from .harness import (TASK_DEFAULTS, ExperimentConfig, run_invert_experiment,
                      run_linreg_experiment, run_logreg_experiment)
from .logistic import scan_constant_decrease

__all__ = ["main"]

_RUNNERS = {
    "invert": run_invert_experiment,
    "linreg": run_linreg_experiment,
    "logreg": run_logreg_experiment,
}


def _own_defaults(fn):
    """The defaults of *fn*'s keyword parameters, by name."""
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    return dict(zip(names[-len(fn.__defaults__):], fn.__defaults__))


# Each subcommand's flags and the value a call without the flag uses:
# budget's eps, mu and d are the logreg experiment's.
_FLAGS = {
    **TASK_DEFAULTS,
    "budget": {**{name: TASK_DEFAULTS["logreg"][name]
                  for name in ("eps", "mu", "d")},
               **_own_defaults(width_depth_budget)},
    "scan-decrease": _own_defaults(scan_constant_decrease),
}
# As in argparse, a value that begins with "-" is a plain negative number.
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _flag(name):
    return "--" + name.replace("_", "-")


def _usage(command):
    command = command or "{" + ",".join(_FLAGS) + "}"
    return f"usage: newtonformer {command} [-h] [--name value ...]"


def _show_help(command):
    """Print the ``-h`` text of *command*, or of the top level for ""."""
    lines = [_usage(command), "", __doc__ if not command else "options:",
             "  -h, --help       show this help message and exit"]
    if command not in ("", "scan-decrease"):
        lines.append("  --config FILE    flat key=value config file")
    for name, default in _FLAGS.get(command, {}).items():
        if isinstance(default, tuple):
            default = ",".join(map(str, default))
        lines.append(f"  {_flag(name):17}default {default}")
    print("\n".join(lines))
    raise SystemExit(0)


def _fail(command, message):
    """Print *command*'s usage line and *message*; exit with status 1."""
    prog = f"newtonformer {command}".rstrip()
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _read_config(path, command):
    """The key=value pairs of *path*, as strings, by flag name."""
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
            if key == "task" and value != command:
                raise ValueError(f"{path}:{lineno}: config task {value!r} "
                                 f"conflicts with subcommand {command!r}")
            if key not in ("task", *_FLAGS[command]):
                raise ValueError(f"{path}:{lineno}: config key {key!r} does "
                                 f"not apply to {command!r}")
            values[key] = value
    values.pop("task", None)
    return values


def _convert(command, name, text):
    """*text* read with the type of *name*'s default."""
    kind = type(_FLAGS[command][name])
    try:
        if kind is tuple:
            return tuple(int(tok) for tok in text.split(",") if tok.strip())
        return kind(text)
    except ValueError:
        _fail(command, f"argument {_flag(name)}: " + (
            f"orders must be comma-separated integers, got {text!r}"
            if kind is tuple else f"invalid {kind.__name__} value: {text!r}"))


def _parse(argv):
    """The subcommand of *argv* and the keyword arguments of its call."""
    command, *tokens = argv or [""]
    if command in ("-h", "--help"):
        _show_help("")
    if command not in _FLAGS:
        _fail("", f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, _FLAGS))})")
    names = {_flag(name): name for name in _FLAGS[command]}
    if command != "scan-decrease":
        names["--config"] = "config"
    given, tokens = {}, iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            _show_help(command)
        flag, sep, value = token.partition("=")
        if flag not in names:
            _fail(command, f"unrecognized arguments: {token}")
        if not sep:
            value = next(tokens, None)
            if value is None or (value.startswith("-")
                                 and not _NEGATIVE.fullmatch(value)):
                _fail(command, f"argument {flag}: expected one argument")
        given[names[flag]] = value
    if "config" in given:  # an explicit flag wins over the file
        given = {**_read_config(given.pop("config"), command), **given}
    return command, {**_FLAGS[command], **{
        name: _convert(command, name, text) for name, text in given.items()}}


def main(argv=None):
    """Run one CLI call on *argv* (default ``sys.argv[1:]``); return its
    exit code.

    Unless the caller has frozen objects itself, the heap is frozen
    (``gc.freeze``) for the call and unfrozen on every way out.  The
    call's collections then scan only its own objects, and still find
    the cycles it makes; the caller's freeze count and enabled state
    are left as they were.
    """
    if gc.get_freeze_count():  # the caller manages its own frozen heap
        return _run(argv)
    gc.freeze()
    try:
        return _run(argv)
    finally:
        gc.unfreeze()


def _run(argv):
    try:
        command, kwargs = _parse(sys.argv[1:] if argv is None else list(argv))
        if command in _RUNNERS:
            for path in _RUNNERS[command](ExperimentConfig(command, **kwargs)):
                print(f"wrote {path}")
        elif command == "budget":
            print(width_depth_budget(**kwargs).to_text())
        else:
            maximum = scan_constant_decrease(**kwargs)
            print(f"max_decrease_bound {maximum:.17g}")
            return 0 if maximum <= -0.01 else 2
        return 0
    except (BudgetError, ConvergenceError, ScanAnomalyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
