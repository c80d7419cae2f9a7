"""End-to-end benchmark of the repro experiments and service.

Usage, from the repository root::

    python3 e2ebench/run.py --workload network-static --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every repetition runs ``e2ebench/workload.py`` as a fresh process, timed
from spawn: ``setup_s`` until the runner is imported and the grids are
described (the service: listening), ``wall_s`` until the process has
produced every report and exited, ``run_s = wall_s - setup_s``.  Design
caches therefore start cold in every repetition, as they do for every CLI
user.  Repetitions follow each other until ``--seconds`` is used up (at
least three), and each end-to-end metric is their median.

Correctness: the sha256 of every report must equal the first
repetition's and the reference recorded for the seed in
``e2ebench/references.json``, when there is one for the running Python,
NumPy and SciPy versions; ``dynamic-pooled`` also reruns once at ``--jobs 1``,
which must give the same digests.  A mismatch, a non-zero exit, an HTTP
non-2xx or a job that does not end ``done`` counts as a failed operation.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``BENCHMARK.json`` from the traced repetition with
the median ``run_s``, with ``trace.overhead`` = its ``run_s`` / the
untraced median ``run_s``; see ``spans.py`` for how layer self times are
accounted.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".e2ebench-work")
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workload import WORKLOADS  # noqa: E402

#: Metrics only ``service-mixed`` has; they are printed and recorded but
#: are not in BENCHMARK.json, whose end-to-end metrics every workload reports.
SERVICE_UNITS = {
    "job_latency_p50_s": "s",
    "design_latency_p50_ms": "ms",
    "design_latency_p99_ms": "ms",
    "design_queries_per_s": "1/s",
    "job_samples": "count",
    "design_samples": "count",
}
MIN_TIMED_REPS = 3
REP_TIMEOUT_S = 60.0
#: Start no repetition after this much time, so a run ends within 180 s.
LAST_START_S = 100.0


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_rep(args, workload: str, rep_dir: str, *, traced: bool = False, jobs: int | None = None) -> dict:
    """Run one repetition in a fresh process; returns its timings and results."""
    os.makedirs(rep_dir, exist_ok=True)
    out = os.path.join(rep_dir, "result.json")
    command = [sys.executable]
    if traced:
        command += ["-X", "importtime"]
    command += [
        os.path.join(HERE, "workload.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--out", out,
        "--work-dir", rep_dir,
    ]
    if args.tiny:
        command.append("--tiny")
    if traced:
        command += ["--trace-dir", os.path.join(rep_dir, "spans")]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    stderr_path = os.path.join(rep_dir, "stderr.txt")
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        started = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
            start_new_session=True,
        )
        # A blocking wait sees the exit at once; Popen.wait(timeout=...)
        # polls with sleeps of up to 50 ms, which would quantise wall_s.
        timer = threading.Timer(REP_TIMEOUT_S, kill_group, (process.pid,))
        timer.start()
        try:
            code = process.wait()
        finally:
            timer.cancel()
        exited = time.perf_counter()
    # A process killed mid-run can leave pool or job workers behind.
    kill_group(process.pid)
    with open(stderr_path, encoding="utf-8", errors="replace") as handle:
        stderr_text = handle.read()
    rep = {"ok": False, "exit_code": code}
    if code == 0 and os.path.exists(out):
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        rep.update(result, ok=True)
        rep["setup_s"] = result["t_setup"] - started
        rep["wall_s"] = exited - started
        rep["run_s"] = rep["wall_s"] - rep["setup_s"]
        if traced:
            rep["layers"] = spans.layer_metrics(
                spans.read_spans(os.path.join(rep_dir, "spans")), result["t_setup"], exited
            )
            rep["layers"].update(spans.import_metrics(stderr_text))
            rep["layers"]["service.shed"] = result.get("service", {}).get("shed", 0)
            rep["spans_dir"] = os.path.join(rep_dir, "spans")
    else:
        lines = [line for line in stderr_text.splitlines() if "import time:" not in line]
        print(f"[{workload}] repetition failed (exit {code}):", file=sys.stderr)
        print("\n".join(lines[-20:]), file=sys.stderr)
    return rep


def nearest_rank(values: list[float], quantile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)] if ordered else 0.0


def run_workload(args, workload: str, references: dict) -> dict:
    """All repetitions of one workload; returns the summary."""
    work = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    began = time.perf_counter()
    counter = itertools.count()

    def rep_dir() -> str:
        return os.path.join(work, f"rep{next(counter)}")

    # Bytecode for every module, so that no timed repetition compiles any.
    for directory in (os.path.join(ROOT, "src"), HERE):
        compileall.compile_dir(directory, quiet=1)
    untraced, traced = [], []
    measure_start = time.perf_counter()
    while True:
        trace_next = args.trace and len(traced) < len(untraced)
        directory = rep_dir()
        rep = run_rep(args, workload, directory, traced=trace_next)
        (traced if trace_next else untraced).append(rep)
        if trace_next and rep.get("spans_dir"):
            kept = os.path.join(WORK_ROOT, f"{workload}.spans.jsonl")
            recorded = spans.read_spans(rep["spans_dir"])
            spans.resolve_rids(recorded)
            with open(kept, "w", encoding="utf-8") as handle:
                for span in recorded:
                    handle.write(json.dumps(span) + "\n")
        shutil.rmtree(directory, ignore_errors=True)
        elapsed = time.perf_counter() - measure_start
        durations = [item["wall_s"] for item in untraced + traced if item["ok"]]
        typical = statistics.median(durations) if durations else 0.0
        enough = len(untraced) >= MIN_TIMED_REPS and (not args.trace or len(traced) >= 2)
        if enough and elapsed + typical > args.seconds:
            break
        if time.perf_counter() - began > LAST_START_S:
            break
    parity = None
    if workload == "dynamic-pooled":
        parity = run_rep(args, workload, rep_dir(), jobs=1)
    shutil.rmtree(work, ignore_errors=True)

    # ------------------------------------------------------- correctness
    key = workload + (":tiny" if args.tiny else "")
    reps = untraced + traced + ([parity] if parity else [])
    timed = [rep for rep in untraced if rep["ok"]]
    if not timed:
        raise SystemExit(f"{workload}: every timed repetition failed; no result")
    first = timed[0]["reports"]
    versions = timed[0]["versions"]
    # Float results may differ in the last digit under another Python,
    # NumPy or SciPy, so references are only compared on the versions they
    # were recorded with.
    expected = None
    if references.get("versions") == versions:
        expected = references["digests"].get(key, {}).get(str(args.seed))
    attempted = failed = 0
    for rep in reps:
        if not rep["ok"]:
            attempted += len(first)
            failed += len(first)
            continue
        attempted += rep["attempted"]
        failed += rep["failed"]
        for name in sorted(set(first) | set(rep["reports"])):
            attempted += 1
            value = rep["reports"].get(name)
            if value != first.get(name) or (expected is not None and value != expected.get(name)):
                failed += 1

    metrics = {
        name: statistics.median(rep[name] for rep in timed)
        for name in ("setup_s", "wall_s", "run_s", "peak_rss_mb")
    }
    if workload == "service-mixed":
        job_latencies = [value for rep in timed for value in rep["service"]["job_latencies_s"]]
        design_ms = [value * 1e3 for rep in timed for value in rep["service"]["design_latencies_s"]]
        metrics["job_latency_p50_s"] = statistics.median(job_latencies) if job_latencies else 0.0
        metrics["design_latency_p50_ms"] = statistics.median(design_ms) if design_ms else 0.0
        metrics["design_latency_p99_ms"] = nearest_rank(design_ms, 0.99)
        metrics["design_queries_per_s"] = statistics.median(
            rep["service"]["design_queries_during_jobs"] / rep["service"]["design_window_s"]
            for rep in timed
        )
        metrics["job_samples"] = len(job_latencies)
        metrics["design_samples"] = len(design_ms)
    layers = {}
    traced_ok = sorted((rep for rep in traced if rep["ok"]), key=lambda rep: rep["run_s"])
    if traced_ok:
        # One whole repetition, the one with the (lower) median run_s, so
        # that its layer self times still add up to its run_s.
        chosen = traced_ok[(len(traced_ok) - 1) // 2]
        layers = dict(chosen["layers"])
        layers["trace.overhead"] = chosen["run_s"] / metrics["run_s"]
    return {
        "workload": workload,
        "key": key,
        "first_reports": first,
        "reference": (
            "no reference for these versions" if references.get("versions") != versions
            else "no reference for this seed" if expected is None
            else "checked against the reference"
        ),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "timed_reps": len(timed),
        "traced_reps": len(traced_ok),
        "versions": versions,
    }


def print_summary(summary: dict, benchmark: dict, trace: bool) -> None:
    units = {item["name"]: item["unit"] for item in benchmark["end_to_end"]}
    units.update(SERVICE_UNITS)
    error_rate = summary["failed"] / summary["attempted"] if summary["attempted"] else 0.0
    print(
        f"== {summary['workload']}: {summary['timed_reps']} timed repetitions, "
        f"{summary['attempted']} operations, {summary['failed']} failed ({summary['reference']})"
    )
    for name, value in summary["metrics"].items():
        print(f"  {name:<24} {value:>12.4f} {units[name]}")
    print(f"  {'error_rate':<24} {error_rate:>12.4f} ratio")
    if not trace:
        return
    layers = summary["layers"]
    run_s = layers["trace.run_s"]
    print(f"  per-layer self time of the traced repetition with the median run_s (of {summary['traced_reps']}):")
    total = 0.0
    for layer in spans.LAYERS + ("other",):
        value = layers[f"{layer}.self_s"]
        total += value
        print(f"    {layer:<14} {value:>9.4f} s {100 * value / run_s:>6.1f}%")
    print(f"    {'sum':<14} {total:>9.4f} s   (traced run_s {run_s:.4f} s)")
    layer_units = {item["name"]: item["unit"] for item in benchmark["per_layer"]}
    for name in layer_units:
        if not name.endswith(".self_s") or "." in name[: -len(".self_s")]:
            if name in layers:
                print(f"    {name:<34} {layers[name]:>14.6g} {layer_units[name]}")


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs (the self-test)")
    parser.add_argument(
        "--references",
        default=os.path.join(HERE, "references.json"),
        help="reference report digests (default: e2ebench/references.json)",
    )
    parser.add_argument(
        "--write-references",
        action="store_true",
        help="store this seed's digests in --references where none is recorded",
    )
    parser.add_argument("--record", metavar="FILE", help="append the summary, with provenance, to FILE")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {os.path.join(ROOT, 'src')}; nothing to benchmark", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    try:
        with open(args.references, encoding="utf-8") as handle:
            references = json.load(handle)
    except FileNotFoundError:
        references = {}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [run_workload(args, workload, references) for workload in workloads]
    for summary in summaries:
        print_summary(summary, benchmark, bool(args.trace))

    wanted = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    metrics = {}
    for summary in summaries:
        values = summary["layers"] if args.trace else summary["metrics"]
        prefix = f"{summary['workload']}/" if len(summaries) > 1 else ""
        for item in wanted:
            metrics[prefix + item["name"]] = {"value": values[item["name"]], "unit": item["unit"]}
    attempted = sum(summary["attempted"] for summary in summaries)
    failed = sum(summary["failed"] for summary in summaries)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    if args.write_references:
        versions = summaries[0]["versions"]
        references.setdefault("versions", versions)
        if references["versions"] != versions:
            print(f"references were recorded under {references['versions']}; not updated", file=sys.stderr)
        else:
            digests = references.setdefault("digests", {})
            for summary in summaries:
                digests.setdefault(summary["key"], {}).setdefault(str(args.seed), summary["first_reports"])
            with open(args.references, "w", encoding="utf-8") as handle:
                json.dump(references, handle, indent=1, sort_keys=True)
                handle.write("\n")
    if args.record:
        versions = summaries[0]["versions"]
        with open(args.record, "a", encoding="utf-8") as handle:
            for summary in summaries:
                record = {
                    "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
                    "git_sha": git_sha(),
                    "host": {"nproc": os.cpu_count(), "platform": platform.platform(), **versions},
                    "workload": summary["workload"],
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "timed_reps": summary["timed_reps"],
                    "attempted": summary["attempted"],
                    "failed": summary["failed"],
                    "metrics": summary["layers"] if args.trace else summary["metrics"],
                    "error_rate": summary["failed"] / summary["attempted"],
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
