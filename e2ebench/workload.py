"""Run one benchmark workload once, in this (fresh) interpreter.

``run.py`` starts this script as a new process for every repetition, so
each repetition pays what a ``repro-experiments`` user pays: interpreter
start, ``import repro``, and cold design caches.  The script writes one JSON
document to ``--out``:

* ``t_setup``: ``time.perf_counter()`` when set-up ended (the runner is
  imported and every grid described; for the service, it is listening).
  ``perf_counter`` is the system-wide monotonic clock on Linux, so the
  parent subtracts its own spawn timestamp from it.
* ``reports``: sha256 of every report text, keyed by report name.
* ``attempted`` / ``failed``: operations this process checked itself
  (HTTP requests and service jobs); report digests are checked by the
  parent against the reference file.
* ``peak_rss_mb``: peak RSS of the largest process of the tree (this one
  or a reaped child).
* ``versions``: Python, NumPy and SciPy versions.
* ``service``: client-side latency samples of the ``service-mixed``
  workload.

Usage (normally via ``run.py``)::

    PYTHONPATH=src python3 e2ebench/workload.py --workload network-static \
        --seed 1 --out result.json --work-dir .e2ebench-work/rep
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import threading
import time

WORKLOADS = ("paper-figures", "network-static", "dynamic-pooled", "service-mixed")

#: Experiments of ``paper-figures``, in CLI order.  Only ``validation``
#: draws random numbers, so only it receives the workload seed.
PAPER_FIGURES = (
    "table1",
    "figure3",
    "figure4",
    "figure5",
    "figure6a",
    "figure6b",
    "headline",
    "calibration",
    "validation",
)

#: ``service-mixed`` sizing.  Design queries: DESIGN_POINTS distinct
#: (code, target BER) points in DESIGN_QUERIES queries, so 4% of queries are
#: first-time solves; the p99 then lies well inside the miss population
#: (the top 4% of latencies) instead of on its edge, and 1000 samples leave
#: ten beyond the p99.
SERVICE_JOBS = 6
DESIGN_POINTS = 40
DESIGN_QUERIES = 1000


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def batch_plan(workload: str, seed: int, tiny: bool) -> list[tuple[str, dict | None]]:
    """``(experiment, options)`` pairs a batch workload runs, in order."""
    if workload == "paper-figures":
        names = ("table1", "calibration", "validation") if tiny else PAPER_FIGURES
        plan = []
        for name in names:
            options = None
            if name == "validation":
                options = {"seed": seed, "num_blocks": 2000, "targets": [1e-3]} if tiny else {"seed": seed}
            plan.append((name, options))
        return plan
    if workload == "network-static":
        options = {"seed": seed}
        if tiny:
            options.update(patterns=["bursty"], loads=[0.5], num_requests=200)
        return [("network", options)]
    adaptive = {"seed": seed}
    availability = {"seed": seed}
    if tiny:
        adaptive.update(drifts=["thermal"], loads=[0.5], num_requests=200)
        availability.update(scenarios=["mixed"], num_requests=200)
    return [("adaptive", adaptive), ("availability", availability)]


def run_batch(args, recorder) -> dict:
    # The runner module is what every CLI invocation imports first; the
    # orchestrator and report helpers come with it.
    from repro.experiments import runner  # noqa: F401
    from repro.experiments import orchestrator
    from repro.experiments.report import section

    if recorder is not None:
        recorder.install()
    plan = batch_plan(args.workload, args.seed, args.tiny)
    for name, options in plan:
        orchestrator.describe_grid(name, options=options)
    t_setup = time.perf_counter()
    manifest_dir = os.path.join(args.work_dir, "manifests")
    reports = {}
    for name, options in plan:
        text, _rows = orchestrator.run_experiment(
            name, jobs=args.jobs, options=options, manifest_dir=manifest_dir
        )
        reports[name] = digest(section(f"Experiment {name}", text))
    return {"t_setup": t_setup, "reports": reports, "attempted": 0, "failed": 0}


# ----------------------------------------------------------------- service
def service_jobs(seed: int, tiny: bool) -> list[dict]:
    """Distinct small seeded ``network`` grids for the sweep client.

    The grid shapes are the same for every seed (the traffic patterns in
    turn), so that the seed changes the traffic but not the amount of work.
    """
    count = 1 if tiny else SERVICE_JOBS
    patterns = ("uniform", "hotspot", "bursty")
    return [
        {
            "patterns": [patterns[index % len(patterns)]],
            "loads": [0.3, 0.7],
            "num_requests": 100 if tiny else 400,
            "seed": seed * 1000 + index,
        }
        for index in range(count)
    ]


def design_stream(seed: int, codes: list[str], tiny: bool) -> list[tuple[str, str]]:
    """Seeded ``(code, target BER)`` query sequence.

    The first query of each distinct point is a cold solve; every later
    query repeats an already-asked point, so it is a cache hit.  First
    occurrences are spread over the whole sequence.  Points take the codes
    in turn (solve costs differ by code) and seeded target BERs.
    """
    rng = random.Random(f"design:{seed}")
    num_points = 5 if tiny else DESIGN_POINTS
    num_queries = 50 if tiny else DESIGN_QUERIES
    points: list[tuple[str, str]] = []
    while len(points) < num_points:
        point = (codes[len(points) % len(codes)], f"{10 ** rng.uniform(-12, -4):.3e}")
        if point not in points:
            points.append(point)
    rng.shuffle(points)
    first_at = sorted(rng.sample(range(1, num_queries), num_points - 1))
    stream = [points[0]]
    introduced = 1
    for position in range(1, num_queries):
        if introduced < num_points and first_at[introduced - 1] == position:
            stream.append(points[introduced])
            introduced += 1
        else:
            stream.append(points[rng.randrange(introduced)])
    return stream


class Client:
    """One closed-loop client on one keep-alive HTTP connection."""

    def __init__(self, host: str, port: int):
        import http.client

        self.connection = http.client.HTTPConnection(host, port, timeout=120)
        self.attempted = 0
        self.failed = 0

    def request(self, method: str, path: str, body: dict | None = None):
        """``(status, parsed JSON)``; any non-2xx counts as a failure."""
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        document = json.loads(response.read().decode("utf-8"))
        self.attempted += 1
        if not 200 <= response.status < 300:
            self.failed += 1
        return response.status, document


def run_service(args, recorder) -> dict:
    from urllib.parse import urlencode

    from repro.coding import available_codes, get_code
    from repro.service.models import JobState
    from repro.service.server import SimulationService

    if recorder is not None:
        recorder.install()
    # Aliases (two names, one code) would make a "first" query a cache hit.
    codes = sorted({get_code(name).name: name for name in sorted(available_codes(), reverse=True)}.values())
    service = SimulationService(data_dir=os.path.join(args.work_dir, "service"), port=0)
    # The API has no long-poll, so the sweep client learns that a job ended
    # from the queue's public transition call instead of polling, which
    # would put the poll interval into the job latency.
    finished = threading.Condition()
    transition = service.queue.transition

    def notifying_transition(*targs, **tkwargs):
        job = transition(*targs, **tkwargs)
        if job.terminal:
            with finished:
                finished.notify_all()
        return job

    service.queue.transition = notifying_transition
    service.start()
    t_setup = time.perf_counter()

    jobs = service_jobs(args.seed, args.tiny)
    stream = design_stream(args.seed, codes, args.tiny)
    job_texts: list[str] = []
    job_latencies: list[float] = []
    design_latencies: list[float] = []
    answers: dict = {}
    state = {"job_failures": 0, "answer_mismatches": 0, "sweep_end": None, "query_ends": []}
    sweep = Client(service.host, service.port)
    query = Client(service.host, service.port)
    if recorder is not None:
        # Clients only wait for the service: passive spans.
        Client.request = recorder.wrap(
            Client.request,
            "client.request",
            "service",
            passive=lambda args, kwargs: True,
            rid=lambda args, kwargs, result: f"{args[1]} {args[2]}",
        )

    def sweep_client():
        for options in jobs:
            started = time.perf_counter()
            status, view = sweep.request(
                "POST", "/jobs", {"experiment": "network", "options": options, "jobs": 1}
            )
            if status != 202:
                state["job_failures"] += 1
                continue
            job_id = view["job_id"]
            with finished:
                finished.wait_for(lambda: service.queue.get(job_id).terminal, timeout=120)
            if service.queue.get(job_id).state != JobState.DONE:
                state["job_failures"] += 1
                continue
            status, document = sweep.request("GET", f"/jobs/{job_id}/result")
            if status != 200:
                state["job_failures"] += 1
                continue
            job_latencies.append(time.perf_counter() - started)
            job_texts.append(document["result"]["text"])
        state["sweep_end"] = time.perf_counter()

    def query_client():
        for code, target in stream:
            started = time.perf_counter()
            status, document = query.request(
                "GET", "/design?" + urlencode({"code": code, "target_ber": target})
            )
            ended = time.perf_counter()
            if status != 200:
                continue
            design_latencies.append(ended - started)
            state["query_ends"].append(ended)
            point = json.dumps(document["point"], sort_keys=True)
            if answers.setdefault((code, target), point) != point:
                state["answer_mismatches"] += 1

    threads = [
        threading.Thread(target=sweep_client, name="bench-sweep-client"),
        threading.Thread(target=query_client, name="bench-query-client"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sweep.connection.close()
    query.connection.close()
    shed = sum(
        value
        for name, value in service.registry.snapshot().get("counters", {}).items()
        if name.startswith("service.shed")
    )
    service.stop()

    # Queries per second while the sweep was running: those that completed
    # before the last job result, over the time from set-up to then.
    sweep_end = state["sweep_end"]
    during = [ended for ended in state["query_ends"] if ended <= sweep_end]
    window = (max(during) if len(during) == len(state["query_ends"]) else sweep_end) - t_setup
    design_text = "\n".join(f"{code} {target} {answers[(code, target)]}" for code, target in sorted(answers))
    return {
        "t_setup": t_setup,
        "reports": {"jobs": digest("\n".join(job_texts)), "design": digest(design_text)},
        # Each job is one operation on top of its HTTP requests; a repeated
        # design answer that differs from the first is one failed operation.
        "attempted": sweep.attempted + query.attempted + len(jobs) + state["answer_mismatches"],
        "failed": sweep.failed + query.failed + state["job_failures"] + state["answer_mismatches"],
        "service": {
            "job_latencies_s": job_latencies,
            "design_latencies_s": design_latencies,
            "design_queries_during_jobs": len(during),
            "design_window_s": window,
            "shed": shed,
        },
    }


def peak_rss_mb() -> float:
    """Peak RSS of the largest process of this tree: this one or a reaped child.

    Not a sum: forked workers share the parent's pages, and a child that
    forks only to exec (``platform.platform()`` runs ``uname -p``) reports
    the parent's whole RSS, so a sum would count the parent twice.
    """
    # Pool workers may still be exiting; reap them so RUSAGE_CHILDREN sees them.
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=30)
    # ru_maxrss of this process also counts the image it replaced at exec,
    # a copy of the parent's; the kernel's high-water mark of this image
    # does not.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            own = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON result file")
    parser.add_argument("--work-dir", required=True, help="scratch directory of this run")
    parser.add_argument("--jobs", type=int, default=None, help="override the pool size")
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    parser.add_argument("--trace-dir", default=None, help="record spans into this directory")
    args = parser.parse_args(argv)
    if args.jobs is None:
        args.jobs = 2 if args.workload == "dynamic-pooled" else 1
    os.makedirs(args.work_dir, exist_ok=True)

    recorder = None
    if args.trace_dir is not None:
        import spans

        recorder = spans.Recorder(args.trace_dir)
    if args.workload == "service-mixed":
        result = run_service(args, recorder)
    else:
        result = run_batch(args, recorder)
    if recorder is not None:
        recorder.flush()
    import numpy
    import scipy

    result["peak_rss_mb"] = peak_rss_mb()
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
