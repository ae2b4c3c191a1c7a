"""The package's exports: each module's __all__ and their union in ionsynth."""

import importlib
import inspect

import pytest

import ionsynth

MODULES = ("pauli", "circuit", "fermion", "integrals", "synth", "verify", "evolution")

# Public definitions a module keeps out of the package API.
UNEXPORTED = {"circuit": {"concatenate"}}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_every_public_class_and_function(name):
    module = importlib.import_module(f"ionsynth.{name}")
    defined = {
        key for key, value in vars(module).items()
        if not key.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == module.__name__
    }
    assert defined - UNEXPORTED.get(name, set()) <= set(module.__all__)
    namespace = {}
    exec(f"from ionsynth.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_exports_each_module_name_once_as_its_own_object():
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"ionsynth.{name}")
        for key in module.__all__:
            assert key not in owners, f"{key} exported by {owners.get(key)} and {name}"
            owners[key] = name
            assert getattr(ionsynth, key) is getattr(module, key)
    assert sorted(ionsynth.__all__) == sorted(["__version__", *owners])
    assert len(ionsynth.__all__) == len(set(ionsynth.__all__))
