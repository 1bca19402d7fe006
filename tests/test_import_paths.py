"""One import path per name.

The solver and estimates packages bind nothing but their submodules, so
each of their names is imported from the module that defines it; the
top-level kfplab is the one alias layer, and each name it binds is the
object its defining module holds.
"""

import importlib
import pkgutil
import types

import pytest

import kfplab
from kfplab import estimates, solver


@pytest.mark.parametrize("package", [solver, estimates],
                         ids=["solver", "estimates"])
def test_layer_packages_bind_only_their_submodules(package):
    names = {name for name in vars(package) if not name.startswith("__")}
    submodules = {m.name for m in pkgutil.iter_modules(package.__path__)}
    assert names <= submodules, sorted(names - submodules)
    assert all(isinstance(getattr(package, name), types.ModuleType)
               for name in names)


def test_top_level_names_are_their_defining_objects():
    bound = {name: obj for name, obj in vars(kfplab).items()
             if not name.startswith("__")
             and not isinstance(obj, types.ModuleType)}
    # README documents the container loader at the top level
    assert "load_grid_function" in bound
    for name, obj in bound.items():
        module = importlib.import_module(obj.__module__)
        assert module.__name__ != "kfplab", name
        assert vars(module).get(name) is obj, name
