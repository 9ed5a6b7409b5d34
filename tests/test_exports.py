import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import newtonformer

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


def test_cli_call_loads_no_scipy(tmp_path):
    """The package runs on numpy alone: importing the CLI and making a
    call loads no scipy module."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from newtonformer import cli\n"
        f"assert cli.main(['logreg', '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
