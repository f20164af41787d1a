"""The package's export lists: every name they give resolves."""

import importlib
import pkgutil

import pytest

import hessbound

MODULES = ["hessbound", *(f"hessbound.{m.name}" for m in pkgutil.iter_modules(hessbound.__path__))]


def test_the_submodules_are_found():
    assert {"hessbound.bounds", "hessbound.codelist", "hessbound.reference",
            "hessbound.harness"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_export_list_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
