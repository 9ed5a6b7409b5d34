import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import newtonformer
from newtonformer import cli

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


def _top_level_modules_after(calls, out_dir):
    """Top-level names of the modules a fresh interpreter holds after
    importing the CLI and making each call in *calls*."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys\nfrom newtonformer import cli\n" + "".join(
        f"assert cli.main({[*argv, '--out-dir', str(out_dir)]!r}) == 0\n"
        for argv in calls
    ) + "print(sorted({m.split('.')[0] for m in sys.modules}))\n"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return ast.literal_eval(res.stdout.splitlines()[-1])


def test_cli_call_loads_no_scipy(tmp_path):
    """The package runs on numpy alone: importing the CLI and making a
    call loads no scipy module."""
    loaded = _top_level_modules_after([["logreg"]], tmp_path)
    assert [m for m in loaded if m.startswith("scipy")] == []


def test_cli_calls_load_no_json(tmp_path):
    """Only the ``budget`` command prints json, so importing the package
    and making a linreg and a logreg call loads no json module."""
    calls = [["linreg", "--t-max", "2", "--batch", "2"],
             ["logreg", "--t-max", "2"]]
    assert "json" not in _top_level_modules_after(calls, tmp_path)


def test_readme_cli_table_lists_each_flag():
    """The README's CLI table names exactly the flags each subcommand's
    parser defines (``-h`` and ``--config`` aside), so a flag added or
    removed in the parser must be added or removed in the docs too."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`[a-z-]+`", cells[0]):
            documented[cells[0].strip("`")] = set(
                re.findall(r"`(--[a-z-]+)`", cells[1])
            )
    _, subparsers = cli._build_parser()
    defined = {
        name: {opt for action in sub._actions for opt in action.option_strings
               if opt.startswith("--")} - {"--help", "--config"}
        for name, sub in subparsers.items()
    }
    assert documented == defined
