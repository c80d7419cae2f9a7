"""SciPy's ``erfc``, ``erfcinv`` and ``betainc`` without ``scipy.special``'s package init.

The paper's model needs three special functions: ``erfc`` and its inverse
for Eq. 3 / Eq. 1 (:mod:`repro.channel.ber`, :mod:`repro.units`) and the
regularised incomplete beta function for the Eq. 2 block-error tail
(:mod:`repro.coding.theory`).  All three live in the compiled
``scipy.special._ufuncs`` module, which loads in about 10 ms.  Importing
them through ``scipy.special`` instead runs the package ``__init__``,
whose array-API layer pulls in ``numpy.f2py``, ``numpy.ma``,
``charset_normalizer`` and ``unittest``: about 0.2 s and 13 MB paid by
every process start, for nothing the package uses.

So ``_ufuncs`` is imported under a bare ``scipy.special`` package: a spec
that only carries SciPy's ``special/`` directory as its search location.
The bare package is registered while the ``scipy.special`` module lock is
held and with ``_initializing`` set, so a concurrent ``import
scipy.special`` waits, exactly as it would for a half-run ``__init__``;
and it is removed again before the lock is released.  A later ``import
scipy.special`` then builds the real package, which reuses the loaded
``_ufuncs`` — so the functions exported here are the *same objects*
(``is``) as ``scipy.special``'s, and every result is bit-identical by
construction.

When ``scipy.special`` is already imported, or the private path fails
(a SciPy release that moves ``_ufuncs``), the names come from the normal
``from scipy.special import ...``.  Lint rule RPR306 keeps every other
module of the package from importing ``scipy.special`` itself.
"""

from __future__ import annotations

import importlib
import os
import sys
from importlib.machinery import ModuleSpec
from importlib.util import module_from_spec

import scipy

__all__ = ["erfc", "erfcinv", "betainc"]

_PACKAGE = "scipy.special"


def _load_bare_ufuncs():
    """``scipy.special._ufuncs`` imported under a bare ``scipy.special``."""
    # The import system's per-module lock: private, hence inside the
    # caller's fallback like everything else on this path.
    from importlib._bootstrap import _ModuleLockManager

    spec = ModuleSpec(_PACKAGE, None, is_package=True)
    spec.submodule_search_locations = [os.path.join(os.path.dirname(scipy.__file__), "special")]
    with _ModuleLockManager(_PACKAGE):
        if _PACKAGE in sys.modules:
            raise ImportError(f"{_PACKAGE} was imported concurrently")
        bare = module_from_spec(spec)
        spec._initializing = True
        sys.modules[_PACKAGE] = bare
        try:
            return importlib.import_module(_PACKAGE + "._ufuncs")
        finally:
            if sys.modules.get(_PACKAGE) is bare:
                del sys.modules[_PACKAGE]


def _functions():
    if _PACKAGE not in sys.modules:
        try:
            ufuncs = _load_bare_ufuncs()
            return ufuncs.erfc, ufuncs.erfcinv, ufuncs.betainc
        except (ImportError, AttributeError):
            pass  # the private path moved: fall back to the public import
    from scipy.special import betainc, erfc, erfcinv

    return erfc, erfcinv, betainc


erfc, erfcinv, betainc = _functions()
