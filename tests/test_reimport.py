"""The package's exports resolve, and a fresh import of the package frees
the previous one: a long-lived process that re-imports cfkzero (as the
benchmark does every round) must not grow with each import."""

import gc
import importlib
import sys
import weakref


def test_every_exported_name_resolves():
    package = importlib.import_module("cfkzero")
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing


def _drop_package():
    for name in [m for m in sys.modules if m == "cfkzero" or m.startswith("cfkzero.")]:
        del sys.modules[name]


def test_reimport_frees_the_previous_package():
    saved = {m: mod for m, mod in sys.modules.items() if m == "cfkzero" or m.startswith("cfkzero.")}
    try:
        first = None
        for _ in range(3):
            _drop_package()
            knots = importlib.import_module("cfkzero.knots")
            if first is None:
                first = [weakref.ref(knots.Torus), weakref.ref(sys.modules["cfkzero"])]
            del knots
        gc.collect()
        assert [ref() for ref in first] == [None, None]
    finally:
        _drop_package()
        sys.modules.update(saved)
