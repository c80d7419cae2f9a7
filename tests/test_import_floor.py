"""The package's import floor: ``scipy.special`` is the only SciPy it loads.

``scipy.stats`` and ``scipy.optimize`` cost over a second of start-up,
paid by every CLI run, worker pool parent and service start.  The package
needs neither (``repro.coding.theory`` computes the root search and the
binomial tail bit-identically without them), so importing the public
entry points in a fresh interpreter must not load them.  Lint rule RPR306
names the offending line; this test catches an indirect import too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

CHILD = """
import json, sys
import repro
import repro.experiments.runner
import repro.service.server
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_entry_points_do_not_import_scipy_stats_or_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    loaded = json.loads(completed.stdout.strip().splitlines()[-1])
    assert "scipy.special" in loaded
    heavy = [
        name
        for name in loaded
        if name.split(".")[:2] in (["scipy", "stats"], ["scipy", "optimize"])
    ]
    assert heavy == []
