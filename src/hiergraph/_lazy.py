"""Modules bound lazily: numpy, and the package's own submodules.

``bind(name)`` registers the module ``name`` in ``sys.modules`` through
``importlib.util.LazyLoader`` and returns its handle.  The module's code
runs on the first attribute access of that handle; until then importing
it costs only finding its file.  Once it has run, the handle is the
plain module.  A module already in ``sys.modules`` is returned as it is,
and a module that cannot be found raises ``ModuleNotFoundError`` at
once, as an eager import would.

``numpy`` here is numpy bound so.  Importing hiergraph thus costs no
numpy start-up (about 210 ms on a shared 2-CPU VM, 130 ms on the one
BLAS thread the CLI asks for) until a command does array maths:
``validate``, ``stats``, ``eval`` and the other annotation commands
never do.  This module sets no BLAS thread count.  Bind it with ``from
._lazy import numpy as np``: a plain ``import numpy`` statement reads
the module's ``__spec__`` and so loads it at once.

``hiergraph/__init__.py`` binds each submodule so too, and the CLI
reaches the others as module handles, so a command runs the code of only
the modules it uses.  They are registered rather than imported inside
functions because code that looks a submodule up in ``sys.modules``
after importing ``hiergraph.cli``, as ``perfbench/tracer.py`` does,
must find it there.

A lazy handle's state shows in its type: ``type(m) is
types.ModuleType`` once its code has run.  Any attribute read, even
``__name__``, runs it.  On Python 3.11 and earlier the first access is
not thread-safe: two threads touching a handle at once may both run the
module's code.  The CLI is single-threaded.
"""

from __future__ import annotations

import importlib.util
import sys


def bind(name: str):
    """The module ``name``, registered to run its code on first use."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    # find_spec also gives None when sys.modules[name] is None, which
    # blocks the import.
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load(*modules) -> None:
    """Run the code of each lazily bound module in ``modules`` now."""
    for module in modules:
        module.__spec__  # any attribute read runs a lazy module's code


numpy = bind("numpy")
