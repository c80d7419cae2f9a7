"""Fast self-test of the benchmark itself (about a minute).

Runs ``run.py`` on tiny inputs and checks its contract:

1. all four workloads, untraced: correct, every end-to-end metric present
   and positive; their digests are stored in a scratch reference file;
2. the same workload again against that file: still correct;
3. a planted wrong reference digest: the run still ends with exit code 0
   and a result line, but counts the mismatch as a failed operation;
4. all four workloads, traced: every per-layer metric present, and the
   layer self times plus ``other.self_s`` add up to the traced ``run_s``;
   spans from pool workers (``dynamic-pooled``) and from the service's job
   worker (``service-mixed``) arrived, since only those processes run shards;
5. a directory holding only ``BENCHMARK.json`` and the benchmark: the run
   fails with a non-zero exit code and prints no result.

Usage, from the repository root::

    python3 e2ebench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".e2ebench-work", "selftest")
sys.path.insert(0, HERE)

from spans import LAYERS  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SEED = 5


def bench(*extra: str, root: str = ROOT) -> tuple[int, dict | None, str]:
    """Run the benchmark; returns ``(exit code, result line or None, stdout)``."""
    command = [sys.executable, os.path.join(root, "e2ebench", "run.py"), "--seed", str(SEED)]
    command += ["--seconds", "1", "--tiny", *extra]
    process = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=600)
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if process.returncode != 0 and result is not None:
        raise AssertionError(f"exit {process.returncode} but a result was printed:\n{process.stderr}")
    return process.returncode, result, process.stdout


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok: {message}")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    references = os.path.join(SCRATCH, "references.json")

    code, result, _ = bench("--workload", "all", "--trace", "0", "--references", references, "--write-references")
    check(code == 0 and result["correct"] and result["failed"] == 0, "all workloads run correctly")
    for workload in WORKLOADS:
        for metric in benchmark["end_to_end"]:
            value = result["metrics"][f"{workload}/{metric['name']}"]
            check(value["value"] > 0 and value["unit"] == metric["unit"], f"{workload} reports {metric['name']}")

    code, result, stdout = bench("--workload", "network-static", "--trace", "0", "--references", references)
    check(code == 0 and result["correct"] and "checked against the reference" in stdout, "digests match the stored reference")

    with open(references, encoding="utf-8") as handle:
        stored = json.load(handle)
    stored["digests"]["network-static:tiny"][str(SEED)]["network"] = "0" * 64
    with open(references, "w", encoding="utf-8") as handle:
        json.dump(stored, handle)
    code, result, _ = bench("--workload", "network-static", "--trace", "0", "--references", references)
    check(code == 0 and result is not None, "a wrong reference does not abort the run")
    check(not result["correct"] and result["failed"] >= 1, "a wrong reference counts as failed operations")

    code, result, _ = bench("--workload", "all", "--trace", "1")
    check(code == 0 and result["correct"], "traced runs are correct")
    for workload in WORKLOADS:
        metrics = {name.split("/", 1)[1]: value["value"] for name, value in result["metrics"].items() if name.startswith(workload + "/")}
        check(set(metrics) == {item["name"] for item in benchmark["per_layer"]}, f"{workload} reports every per-layer metric")
        total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["other.self_s"]
        check(abs(total - metrics["trace.run_s"]) < 1e-6 * max(1.0, total), f"{workload} layer self times add up to run_s")
        check(metrics["import.total_s"] > 0 and metrics["link.design_point.calls"] > 0, f"{workload} traces import and link")
    for workload in ("dynamic-pooled", "service-mixed"):
        check(result["metrics"][f"{workload}/orchestrator.shards"]["value"] > 0, f"{workload} collects spans from forked workers")
    check(result["metrics"]["service-mixed/service.queue.persist_calls"]["value"] > 0, "service-mixed traces the durable queue")

    stripped = os.path.join(SCRATCH, "stripped")
    shutil.copytree(HERE, os.path.join(stripped, "e2ebench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    code, result, _ = bench("--workload", "paper-figures", "--trace", "0", root=stripped)
    check(code != 0 and result is None, "without the sources the run fails and prints no result")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
