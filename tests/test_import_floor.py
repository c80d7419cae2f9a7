"""The package's import floor: three compiled SciPy ufuncs and nothing heavier.

``scipy.stats`` and ``scipy.optimize`` cost over a second of start-up,
paid by every CLI run, worker pool parent and service start; the package
needs neither (``repro.coding.theory`` computes the root search and the
binomial tail bit-identically without them).  ``scipy.special``'s package
init costs another ~0.2 s for an array-API layer the package never uses,
so ``repro._special`` loads the compiled ``scipy.special._ufuncs`` on its
own.  Importing the public entry points in a fresh interpreter must
therefore load none of these.  Lint rule RPR306 names an offending line;
these tests catch an indirect import too.

The children run with ``SCIPY_ARRAY_API`` removed from their environment:
in SciPy's array-API mode ``scipy.special.erfc`` is a wrapper around the
ufunc, so object identity only holds without it.  The in-process checks
at the bottom run in whichever mode the suite runs in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special

from repro import _special

REPO_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

#: Modules that only ``scipy.special``'s package init would load.
PACKAGE_INIT_ONLY = (
    "scipy.special._support_alternative_backends",
    "scipy._lib.array_api_compat",
    "numpy.f2py",
    "numpy.ma",
    "charset_normalizer",
    "unittest",
)

NAMES = ("erfc", "erfcinv", "betainc")


def run_child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env.pop("SCIPY_ARRAY_API", None)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


ENTRY_POINTS = """
import json, sys
import repro
import repro.experiments.runner
import repro.service.server
print(json.dumps(sorted(sys.modules)))
"""


def test_entry_points_do_not_import_scipy_stats_or_optimize():
    loaded = run_child(ENTRY_POINTS)
    heavy = [
        name
        for name in loaded
        if name.split(".")[:2] in (["scipy", "stats"], ["scipy", "optimize"])
    ]
    assert heavy == []


def test_entry_points_load_the_ufuncs_without_the_special_package():
    loaded = set(run_child(ENTRY_POINTS))
    assert "scipy.special._ufuncs" in loaded
    assert "scipy.special" not in loaded
    assert [name for name in PACKAGE_INIT_ONLY if name in loaded] == []


IDENTITY_AFTER = """
import json, sys
import repro.experiments.runner
from repro import _special
bare_left = "scipy.special" in sys.modules
import scipy.special
print(json.dumps({
    "bare_left": bare_left,
    "real_package": getattr(scipy.special, "__file__", None) is not None,
    "same": [getattr(_special, n) is getattr(scipy.special, n) for n in %r],
    "ufuncs_reused": scipy.special._ufuncs is sys.modules["scipy.special._ufuncs"],
}))
""" % (NAMES,)


def test_functions_are_scipy_specials_when_it_is_imported_later():
    result = run_child(IDENTITY_AFTER)
    assert result == {
        "bare_left": False,
        "real_package": True,
        "same": [True, True, True],
        "ufuncs_reused": True,
    }


IDENTITY_BEFORE = """
import json
import scipy.special
import repro.experiments.runner
from repro import _special
print(json.dumps([getattr(_special, n) is getattr(scipy.special, n) for n in %r]))
""" % (NAMES,)


def test_functions_are_scipy_specials_when_it_is_imported_first():
    assert run_child(IDENTITY_BEFORE) == [True, True, True]


PRIVATE_PATH_FAILS = """
import json, sys

class BlockBareUfuncs:
    # Fails the import of _ufuncs under the bare package only, as a SciPy
    # release that moved the module would.
    blocked = 0

    def find_spec(self, name, path=None, target=None):
        parent = sys.modules.get("scipy.special")
        if name == "scipy.special._ufuncs" and getattr(parent, "__file__", None) is None:
            BlockBareUfuncs.blocked += 1
            raise ImportError("moved")
        return None

sys.meta_path.insert(0, BlockBareUfuncs())
import repro.experiments.runner
from repro import _special
package = sys.modules.get("scipy.special")
print(json.dumps({
    "blocked": BlockBareUfuncs.blocked,
    "real_package": getattr(package, "__file__", None) is not None,
    "same": [getattr(_special, n) is getattr(package, n, None) for n in %r],
    "values": [float(_special.erfc(0.5)), float(_special.erfcinv(0.5)),
               float(_special.betainc(2.0, 3.0, 0.25))],
}))
""" % (NAMES,)


def test_a_failing_private_path_falls_back_to_the_public_import():
    result = run_child(PRIVATE_PATH_FAILS)
    assert result["blocked"] == 1
    assert result["real_package"] is True
    assert result["same"] == [True, True, True]
    assert result["values"] == [
        float(scipy.special.erfc(0.5)),
        float(scipy.special.erfcinv(0.5)),
        float(scipy.special.betainc(2.0, 3.0, 0.25)),
    ]


CONCURRENT_IMPORT = """
import json, sys, threading, time
import scipy

paused, release = threading.Event(), threading.Event()

class PauseBareUfuncs:
    # Holds the helper inside its private path, bare package registered.
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not paused.is_set():
            paused.set()
            release.wait(60)
        return None

sys.meta_path.insert(0, PauseBareUfuncs())
seen = {}

def load_helper():
    from repro import _special
    seen["helper"] = _special

def load_package():
    import scipy.special
    seen["package"] = scipy.special

helper = threading.Thread(target=load_helper)
helper.start()
paused.wait(60)
package = threading.Thread(target=load_package)
package.start()
time.sleep(0.3)
waited = package.is_alive()
release.set()
helper.join(60)
package.join(60)
print(json.dumps({
    "waited": waited,
    "finished": not helper.is_alive() and not package.is_alive(),
    "real_package": getattr(seen["package"], "__file__", None) is not None,
    "same": [getattr(seen["helper"], n) is getattr(seen["package"], n, None) for n in %r],
}))
""" % (NAMES,)


def test_a_concurrent_import_waits_for_the_bare_package_to_go():
    assert run_child(CONCURRENT_IMPORT) == {
        "waited": True,
        "finished": True,
        "real_package": True,
        "same": [True, True, True],
    }


@pytest.mark.skipif(
    os.environ.get("SCIPY_ARRAY_API") == "1",
    reason="array-API mode wraps scipy.special's ufuncs",
)
def test_functions_are_scipy_specials_in_this_process():
    assert [getattr(_special, n) is getattr(scipy.special, n) for n in NAMES] == [True] * 3


def test_functions_agree_with_scipy_special_bit_for_bit():
    x = np.concatenate([np.linspace(-6.0, 30.0, 721), [0.0, 1e-300, np.inf, -np.inf, np.nan]])
    assert np.array_equal(_special.erfc(x), scipy.special.erfc(x), equal_nan=True)
    y = np.concatenate([np.logspace(-300, 0, 601), 2.0 - np.logspace(-16, 0, 161), [0.0, 2.0]])
    assert np.array_equal(_special.erfcinv(y), scipy.special.erfcinv(y), equal_nan=True)
    a, b, p = np.meshgrid(
        [1.0, 2.0, 3.0, 9.0, 40.0], [1.0, 62.0, 1000.0, 2010.0], np.logspace(-15, -0.5, 30)
    )
    assert np.array_equal(
        _special.betainc(a, b, p), scipy.special.betainc(a, b, p), equal_nan=True
    )
