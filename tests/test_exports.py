import importlib
import pkgutil

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
