"""Re-imported copies of the library are freed once nothing uses them."""

import gc
import importlib
import sys
import weakref


def _library_modules() -> dict:
    return {
        name: mod
        for name, mod in sys.modules.items()
        if name == "idemlift" or name.startswith("idemlift.")
    }


def _import_afresh() -> weakref.ref:
    """Drop every idemlift module and import the package and its cli again,
    as a harness that measures each run on a fresh import does; returns a
    weak reference to the new copy's ``BanachAlgebra``."""
    for name in _library_modules():
        del sys.modules[name]
    importlib.import_module("idemlift")
    importlib.import_module("idemlift.cli")
    return weakref.ref(sys.modules["idemlift.algebra"].BanachAlgebra)


def test_reimported_copies_of_the_library_are_freed():
    """A process-wide cache that holds one of the library's classes keeps
    every earlier copy alive: typing's subscription cache does that for a
    module-level alias such as ``Callable[[Sequence[complex]], Element]``."""
    original = _library_modules()
    try:
        copies = [_import_afresh() for _ in range(3)]
        gc.collect()
        assert [ref() is None for ref in copies[:-1]] == [True, True]
    finally:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(original)
    gc.collect()
    assert copies[-1]() is None
