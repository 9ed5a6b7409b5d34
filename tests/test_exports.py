import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import newtonformer
from newtonformer import cli
from newtonformer.builders import width_depth_budget
from newtonformer.harness import TASK_DEFAULTS
from newtonformer.logistic import scan_constant_decrease

# __main__ runs the CLI on import.
_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(newtonformer.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("module", ["", *_MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(
        f"newtonformer.{module}" if module else "newtonformer"
    )
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_each_library_module():
    """Each library module's ``__all__`` is the one declaration of its
    public names: the package exports exactly those, each once, as the
    same objects.  ``cli`` stays out of the package namespace."""
    library = [m for m in _MODULES if m != "cli"]
    owner = {}
    for module in library:
        mod = importlib.import_module(f"newtonformer.{module}")
        for name in mod.__all__:
            assert name not in owner, (name, owner.get(name), module)
            owner[name] = module
            assert getattr(newtonformer, name) is getattr(mod, name), name
    assert sorted(newtonformer.__all__) == sorted(owner)
    assert len(set(newtonformer.__all__)) == len(newtonformer.__all__)


# Public names that nothing in src/ calls yet, each with the reason it
# stays.  An entry must still lack a caller: the item that gives a name
# its caller deletes the name's entry.
_NO_SRC_CALLER = {
    "build_inversion_block": "ROADMAP item 8: the constructed invert trace",
    "make_inversion_prompt": "ROADMAP item 8: the constructed invert trace",
    "read_inversion_iterate": "ROADMAP item 8: the constructed invert trace",
    "predicted_steps": "ROADMAP item 8: the invert run reports it, or "
                       "it moves into tests",
    "fitted_order": "ROADMAP item 8: the invert run reports it, or it "
                    "moves into tests",
    "suboptimality_bound": "ROADMAP item 6: the layers-versus-eps runner "
                           "compares step counts against it",
    "quadratic_phase_epsilon": "ROADMAP item 6: the layers-versus-eps "
                               "runner compares step counts against it",
    "decrease_bound": "ROADMAP item 6: the layers-versus-eps runner "
                      "compares step counts against it",
    "run_inexact_newton": "ROADMAP Settled: it stays beside the harness "
                          "loop",
}


def _src_references():
    """Every name that code under src/ loads, as a bare name or as an
    attribute.  Definitions, imports, docstrings and ``__all__``
    strings load no name, so they are not references."""
    package = Path(newtonformer.__file__).parent
    used = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_src_caller():
    """Each exported name has a caller in src/ (the CLI included), or an
    allowlist entry that says why it has none yet; an entry whose name
    has since gained a caller is stale and fails too."""
    used = _src_references()
    exports = set(newtonformer.__all__)
    assert set(_NO_SRC_CALLER) <= exports
    unused = sorted(exports - used - set(_NO_SRC_CALLER))
    assert unused == [], "exported, but no caller in src/ and no entry"
    stale = sorted(set(_NO_SRC_CALLER) & used)
    assert stale == [], "allowlisted, but src/ calls it"


def _fresh_interpreter(code):
    """The value of the last stdout line of *code*, run in a fresh
    interpreter that imports the package from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return ast.literal_eval(res.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Full names of the modules one fresh interpreter holds after
    importing the CLI and making a default logreg call, a two-step
    linreg call and a two-step logreg call; then those it holds after
    a budget call too."""
    out = str(tmp_path_factory.mktemp("calls"))
    calls = [[*argv, "--out-dir", out] for argv in (
        ["logreg"], ["linreg", "--t-max", "2", "--batch", "2"],
        ["logreg", "--t-max", "2"])]
    return _fresh_interpreter(
        f"import sys\nfrom newtonformer import cli\nfor argv in {calls!r}:\n"
        "    assert cli.main(argv) == 0\nfirst = sorted(sys.modules)\n"
        "assert cli.main(['budget']) == 0\n"
        "print((first, sorted(sys.modules)))\n")


def test_cli_call_loads_no_scipy(loaded):
    """The package runs on numpy alone: importing the CLI and making a
    call loads no scipy module."""
    assert [m for m in loaded[0] if m.startswith("scipy")] == []


def test_cli_calls_load_no_json(loaded):
    """Only the ``budget`` command prints json, so importing the package
    and making a linreg and a logreg call loads no json module."""
    assert "json" not in loaded[0]


def test_cli_calls_load_no_argparse(loaded):
    """The CLI parses argv from its own flag table: a fresh interpreter
    that makes linreg, logreg and budget calls loads neither argparse
    nor the gettext and locale modules its first parse imports
    (ROADMAP, Settled, has the measured cost)."""
    assert {"argparse", "gettext", "locale"}.isdisjoint(loaded[1])


def test_cli_calls_load_no_ascii_codec(loaded):
    """Each CSV is encoded as ASCII in memory and written as bytes, so a
    linreg and a logreg call import no ``encodings.ascii`` codec, as a
    file opened with ``encoding="ascii"`` would."""
    assert "encodings.ascii" not in loaded[0]


_GC_PROBE = """
import gc, sys
from newtonformer import cli

def state():
    return gc.get_freeze_count(), gc.isenabled()

def run(argv):
    before = state()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, before, state()

# Objects that exist before the call, held so that their ids stay theirs.
pre = gc.get_objects()
pre_ids = {id(obj) for obj in pre}
def young_pre():
    return sum(id(obj) in pre_ids
               for gen in range(3) for obj in gc.get_objects(gen))
seen = []
def hook(phase, info):
    if phase == "start":
        seen.append(young_pre())

linreg = ["linreg", "--t-max", "2", "--batch", "2", "--out-dir", OUT]
gc.set_threshold(50, 2, 2)
gc.callbacks.append(hook)
runs = [run(linreg)]
gc.callbacks.remove(hook)
runs += [run(argv) for argv in (["linreg", "--d", "x"],
                                 ["linreg", "--d", "0"], ["linreg", "-h"])]
gc.disable()
runs.append(run(linreg))
gc.enable()
gc.freeze()
runs.append(run(linreg))
print((seen, runs, young_pre()))
"""


def test_cli_call_collects_only_its_own_objects(tmp_path):
    """``cli.main`` freezes the heap for the call: with thresholds low
    enough that the call collects, no collection finds an object that
    existed before the call outside the frozen set.  Every way out
    (success, a usage error, a library error, ``-h``) leaves the freeze
    count and the enabled state as they were, with the collector on or
    off, and objects the caller froze first stay frozen."""
    seen, runs, young_after = _fresh_interpreter(
        _GC_PROBE.replace("OUT", repr(str(tmp_path))))
    assert len(seen) >= 3
    assert seen == [0] * len(seen)
    assert [code for code, _, _ in runs] == [0, 1, 1, 0, 0, 0]
    assert [before[1] for _, before, _ in runs] == [True] * 4 + [False, True]
    for _, before, after in runs:
        assert after == before
    assert runs[-1][1][0] > 0 and young_after == 0


def test_readme_cli_table_lists_each_flag():
    """The README's CLI table names exactly each subcommand's flags
    (``-h`` and ``--config`` aside), so a flag added or removed in the
    CLI must be added or removed in the docs too.  Each ``(default)`` it
    prints, read with the flag's own type, is the value a call without
    the flag uses: ``TASK_DEFAULTS`` for an experiment, the logreg
    experiment's for budget's eps, mu and d, and the library function's
    own default for the rest."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`[a-z-]+`", cells[0]):
            documented[cells[0].strip("`")] = dict(
                re.findall(r"`--([a-z-]+)` \(([^)]*)\)", cells[1])
            )

    def own_defaults(fn):
        return {name: p.default
                for name, p in inspect.signature(fn).parameters.items()
                if p.default is not p.empty}
    budget = {name: TASK_DEFAULTS["logreg"][name]
              for name in ("eps", "mu", "d")}
    library = {**TASK_DEFAULTS,
               "budget": {**budget, **own_defaults(width_depth_budget)},
               "scan-decrease": own_defaults(scan_constant_decrease)}
    assert cli._FLAGS == library
    assert {command: set(shown) for command, shown in documented.items()} == {
        command: {name.replace("_", "-") for name in defaults}
        for command, defaults in library.items()}
    for command, defaults in library.items():
        for name, want in defaults.items():
            text = documented[command][name.replace("_", "-")]
            assert cli._convert(command, name, text) == want, (command, name)


def test_readme_python_example_runs():
    """Every ``python`` block in the README runs as written, so an API
    change that breaks the documented example fails here."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        readme.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})
