import importlib
import pkgutil

import pytest

import bosepoly

MODULES = ["bosepoly"] + sorted(
    f"bosepoly.{m.name}" for m in pkgutil.iter_modules(bosepoly.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ lists missing names: {missing}"
    exec(f"from {name} import *", {})
