"""Tests for the package namespace: what `import trikoorn` exports."""

import trikoorn as tk
from trikoorn import jacobi, koornwinder, ladders, operators, transform

MODULES = (jacobi, koornwinder, ladders, operators, transform)


def test_package_exports_the_union_of_the_module_exports():
    union = {"__version__"}.union(*(mod.__all__ for mod in MODULES))
    assert set(tk.__all__) == union
    assert len(tk.__all__) == len(union)


def test_each_exported_name_is_the_module_own_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(tk, name) is getattr(mod, name), f"{mod.__name__}.{name}"
