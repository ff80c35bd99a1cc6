#!/usr/bin/env python3
"""Import every module of the importable ``deltapoe`` package and fail if
that loads a module that is costly to import at start-up.

Each CLI command is a process of its own, so what the package imports is
paid on every call.  ``dataclasses`` pulls in ``inspect`` (and with it
``ast``, ``dis`` and ``tokenize``) and generates code for each class it
decorates; the package's records are plain ``__slots__`` classes instead.

    PYTHONPATH=src python3 scripts/import_guard.py    # the source tree
    python3 scripts/import_guard.py                   # an installed package

Exits 1, naming the modules, if any of them was loaded.
"""

import importlib
import os
import sys

HEAVY = ("dataclasses", "inspect")


def main() -> int:
    preloaded = [name for name in HEAVY if name in sys.modules]
    if preloaded:
        print(f"loaded before deltapoe was imported: {', '.join(preloaded)}")
        return 1
    package = importlib.import_module("deltapoe")
    where = os.path.dirname(package.__file__)
    names = sorted(f[:-3] for f in os.listdir(where) if f.endswith(".py") and f != "__init__.py")
    for name in names:
        importlib.import_module(f"deltapoe.{name}")
    loaded = [name for name in HEAVY if name in sys.modules]
    if loaded:
        print(f"importing deltapoe ({where}) loads {', '.join(loaded)}")
        return 1
    print(f"imported {len(names)} deltapoe modules from {where}; none loads {' or '.join(HEAVY)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
