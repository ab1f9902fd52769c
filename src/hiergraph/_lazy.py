"""numpy, bound lazily.

``numpy`` here is a module handle whose code runs on its first attribute
access, so importing hiergraph costs no numpy start-up (about 210 ms on
a shared 2-CPU VM, 130 ms on the one BLAS thread the CLI asks for) until
a command does array maths: ``validate``, ``stats``, ``eval`` and the
other annotation commands never do.  This module sets no BLAS thread
count.  The handle is registered as
``sys.modules["numpy"]``, so numpy's own imports and every other
importer share it; once loaded it is the plain numpy module.  If numpy
is already imported, that module is reused.  If numpy is missing,
importing this module raises ``ModuleNotFoundError`` as an eager import
would.

Bind it with ``from ._lazy import numpy as np``.  A plain ``import
numpy`` statement reads the module's ``__spec__`` and so loads it at
once.

On Python 3.11 and earlier the first access is not thread-safe: two
threads touching the handle at once may both run numpy's code.  The CLI
is single-threaded.
"""

from __future__ import annotations

import importlib.util
import sys

numpy = sys.modules.get("numpy")
if numpy is None:
    # find_spec also gives None when sys.modules["numpy"] is None, which
    # blocks the import.
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    numpy = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = numpy
    _spec.loader.exec_module(numpy)
