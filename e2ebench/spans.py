"""Spans for traced benchmark runs: recording, and per-layer accounting.

Recording.  :class:`Recorder` wraps public calls into each ``repro`` layer
from outside (nothing in ``src/`` changes): each wrapped call becomes a
span ``(id, parent, name, layer, start, end, thread, passive, rid)``.
Spans stay in memory and are written once, when the process ends; forked
processes (pool workers, the service's job workers) write theirs after
each shard and after storing a job result, because they end without
returning through this code.  A function is patched where its caller looks it up: class
attributes for methods, and every ``repro`` module global that holds a
module-level function.

Accounting.  :func:`layer_metrics` turns the spans of one run into the
per-layer metrics.  A layer's self time is wall time: the run window is cut
at every span boundary; in each piece, the innermost span of every busy
timeline (process, thread) shares the piece equally.  Passive spans, which
only wait for other timelines (a pooled sweep waiting for its workers, a
client waiting for the service), count only when no active span runs
anywhere.  Pieces no span covers are ``other``.  The layer self times and
``other.self_s`` therefore add up to the run's ``run_s``.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import statistics
import sys
import threading
from collections import defaultdict
from threading import get_ident
from time import perf_counter

#: Layers of the run phase, named after their ``repro`` packages.
LAYERS = (
    "traffic",
    "manager",
    "link",
    "netsim",
    "outcomes",
    "metrics",
    "coding",
    "orchestrator",
    "service",
)

YIELDED = {"yielded": 1}

OUTCOME_METHODS = (
    "sample",
    "outcome_from_uniform",
    "resolve_failed_attempt",
    "attempt_failure_probability",
    "failure_probability_for",
    "block_disturb_probability",
    "primary_draw_count",
)


class Recorder:
    """In-memory span recorder for one process (and the processes it forks)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.root_pid = os.getpid()
        self._reset(fork_parent=None)
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self, fork_parent) -> None:
        self.pid = os.getpid()
        self.records: list = []
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.fork_parent = fork_parent

    def _after_fork(self) -> None:
        # The child's only thread is the one that forked: its open span is
        # the cross-process parent of the child's top-level spans.
        stack = getattr(self.local, "stack", None)
        self._reset(f"{self.pid}:{stack[-1]}" if stack else self.fork_parent)

    def wrap(self, func, name, layer, *, passive=None, before=None, attrs=None, rid=None):
        """``func`` recording one span per call.

        ``passive(args, kwargs)`` marks waiting spans; ``before(args,
        kwargs)`` runs ahead of the call and its value reaches ``attrs(args,
        kwargs, result, before_value)``, which returns extra span fields;
        ``rid(args, kwargs, result)`` names the run or request.  Spans
        without one inherit their parent's (see :func:`resolve_rids`).
        """
        recorder = self
        post_flush = name in ("orchestrator.shard", "service.store.put")

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            local = recorder.local
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else recorder.fork_parent
            span_id = next(recorder.ids)
            stack.append(span_id)
            prior = before(args, kwargs) if before is not None else None
            result = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                recorder.records.append(
                    (
                        span_id,
                        parent,
                        name,
                        layer,
                        start,
                        end,
                        get_ident(),
                        passive(args, kwargs) if passive is not None else False,
                        rid(args, kwargs, result) if rid is not None else None,
                        attrs(args, kwargs, result, prior) if attrs is not None else None,
                    )
                )
                if post_flush and os.getpid() != recorder.root_pid:
                    recorder.flush()

        return wrapper

    def timed_generator(self, iterator, name, layer):
        """Yield from ``iterator``, recording each step as one span."""
        while True:
            local = self.local
            stack = getattr(local, "stack", None)
            parent = stack[-1] if stack else self.fork_parent
            span_id = next(self.ids)
            start = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                self.records.append(
                    (span_id, parent, name, layer, start, perf_counter(), get_ident(), False, None, None)
                )
                return
            self.records.append(
                (span_id, parent, name, layer, start, perf_counter(), get_ident(), False, None, YIELDED)
            )
            yield item

    def flush(self) -> None:
        """Append this process's recorded spans to its file and forget them.

        The raw tuples are pickled (one pickle per flush), which costs the
        traced process far less than JSON; :func:`read_spans` expands them.
        """
        records, self.records = self.records, []
        if records:
            path = os.path.join(self.out_dir, f"spans-{self.pid}.pickle")
            with open(path, "ab") as handle:
                pickle.dump((self.pid, records), handle, protocol=pickle.HIGHEST_PROTOCOL)

    # --------------------------------------------------------------- patching
    def patch_method(self, cls, method, name, layer, **options) -> None:
        setattr(cls, method, self.wrap(getattr(cls, method), name, layer, **options))

    def patch_function(self, original, name, layer, **options) -> None:
        """Replace ``original`` in every ``repro`` module that holds it."""
        replacement = self.wrap(original, name, layer, **options)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)

    def install(self) -> None:
        """Wrap the public entry points of every layer (call after import)."""
        from repro.coding import theory
        from repro.experiments import orchestrator
        from repro.link.design import OpticalLinkDesigner
        from repro.manager.manager import OpticalLinkManager
        from repro.netsim import outcomes
        from repro.netsim.engine import NetworkResult, NetworkSimulator
        from repro.obs import manifest
        from repro.photonics.crosstalk import CrosstalkModel
        from repro.simulation.linksim import OpticalLinkSimulator
        from repro.traffic import generators

        recorder = self
        generate = generators._BaseGenerator.generate

        @functools.wraps(generate)
        def timed_generate(generator, *args, **kwargs):
            return recorder.timed_generator(generate(generator, *args, **kwargs), "traffic.step", "traffic")

        generators._BaseGenerator.generate = timed_generate

        self.patch_method(OpticalLinkManager, "configure", "manager.configure", "manager")
        self.patch_method(
            OpticalLinkManager, "configure_degraded", "manager.configure_degraded", "manager"
        )
        self.patch_method(
            OpticalLinkDesigner,
            "design_point",
            "link.design_point",
            "link",
            before=lambda args, kwargs: args[0].cached_point(*args[1:], **kwargs) is not None,
            attrs=lambda args, kwargs, result, hit: {"hit": hit},
        )
        self.patch_method(CrosstalkModel, "worst_case_ratio", "link.crosstalk", "link")
        self.patch_function(theory.raw_ber_for_target_output_ber, "link.raw_ber_solve", "link")
        self.patch_method(
            NetworkSimulator,
            "run",
            "netsim.run",
            "netsim",
            attrs=lambda args, kwargs, result, _: {"events": result.events_processed} if result else None,
        )
        for sampler in (outcomes.ProbabilisticOutcomeSampler, outcomes.BitExactOutcomeSampler):
            for method in OUTCOME_METHODS:
                if method in vars(sampler):
                    self.patch_method(sampler, method, f"outcomes.{method}", "outcomes")
        self.patch_method(NetworkResult, "metrics", "metrics.compute", "metrics")
        self.patch_method(
            OpticalLinkSimulator,
            "run",
            "coding.linksim_run",
            "coding",
            attrs=lambda args, kwargs, result, _: {"blocks": result.blocks_simulated} if result else None,
        )

        # Orchestrator and I/O.  Grids are re-registered with wrapped
        # functions; forked workers dispatch through the same registry.
        self.patch_function(
            orchestrator.run_experiment,
            "orchestrator.run_experiment",
            "orchestrator",
            passive=lambda args, kwargs: kwargs.get("jobs", 1) > 1,
            # A service job's checkpoint directory is named after its job id.
            rid=lambda args, kwargs, result: (
                os.path.basename(kwargs["checkpoint_dir"]) if kwargs.get("checkpoint_dir") else args[0]
            ),
            attrs=lambda args, kwargs, result, _: {"jobs": kwargs.get("jobs", 1)},
        )
        for experiment in orchestrator.available_experiments():
            # The registry has no public getter; register_experiment is the
            # public way back in.
            grid = orchestrator._GRIDS[experiment]
            orchestrator.register_experiment(
                experiment,
                orchestrator.GridFunctions(
                    self.wrap(grid.shards, "orchestrator.describe", "orchestrator"),
                    self.wrap(grid.run_shard, "orchestrator.shard", "orchestrator"),
                    self.wrap(grid.merge, "orchestrator.merge", "orchestrator"),
                ),
                replace=True,
            )
        self.patch_function(manifest.write_manifest, "io.manifest_write", "orchestrator")
        # The only handle on checkpoint writes is the orchestrator's own
        # helper, which run_experiment looks up as a module global.
        self.patch_function(orchestrator._write_checkpoint, "io.checkpoint_write", "orchestrator")

        if "repro.service.server" in sys.modules:
            self._install_service()

    def _install_service(self) -> None:
        from repro.service import server
        from repro.service.queue import DurableJobQueue
        from repro.service.store import PersistentDesignCache, ResultsStore

        job_id = lambda args, kwargs, result: args[1]  # noqa: E731
        self.patch_method(
            DurableJobQueue,
            "submit",
            "service.queue.submit",
            "service",
            rid=lambda args, kwargs, result: args[1].job_id,
            attrs=lambda args, kwargs, result, _: {"persist": bool(result and result[1])},
        )
        self.patch_method(
            DurableJobQueue,
            "claim_next",
            "service.queue.claim_next",
            "service",
            rid=lambda args, kwargs, result: result.job_id if result is not None else None,
            attrs=lambda args, kwargs, result, _: {"persist": result is not None},
        )
        for method in ("transition", "resubmit"):
            self.patch_method(
                DurableJobQueue,
                method,
                f"service.queue.{method}",
                "service",
                rid=job_id,
                attrs=lambda args, kwargs, result, _: {
                    "persist": result is not None,
                    "state": getattr(result, "state", None),
                },
            )
        self.patch_method(ResultsStore, "put", "service.store.put", "service", rid=job_id)
        self.patch_method(ResultsStore, "get", "service.store.get", "service", rid=job_id)
        self.patch_method(PersistentDesignCache, "load", "service.design_cache.load", "service")
        self.patch_method(PersistentDesignCache, "store", "service.design_cache.store", "service")
        self.patch_function(
            server.dispatch,
            "service.http",
            "service",
            rid=lambda args, kwargs, result: " ".join(
                [args[1], args[2]] + [f"{key}={value}" for key, value in sorted(args[3].items())]
            ),
            attrs=lambda args, kwargs, result, _: {"status": result[0]} if result else None,
        )
        self.patch_method(server.SimulationService, "stop", "service.stop", "service")


# --------------------------------------------------------------- accounting
def read_spans(directory: str) -> list[dict]:
    """Every span the recorders wrote under ``directory``, one dict per span."""
    spans = []
    for filename in sorted(os.listdir(directory)):
        if not (filename.startswith("spans-") and filename.endswith(".pickle")):
            continue
        with open(os.path.join(directory, filename), "rb") as handle:
            while True:
                try:
                    pid, records = pickle.load(handle)
                except EOFError:
                    break
                for span_id, parent, name, layer, start, end, tid, passive, rid, extra in records:
                    span = {
                        "id": f"{pid}:{span_id}",
                        "parent": parent if parent is None or isinstance(parent, str) else f"{pid}:{parent}",
                        "name": name,
                        "layer": layer,
                        "start": start,
                        "end": end,
                        "pid": pid,
                        "tid": tid,
                        "passive": passive,
                        "rid": rid,
                    }
                    if extra:
                        span.update(extra)
                    spans.append(span)
    return spans


def resolve_rids(spans: list[dict]) -> None:
    """Give every span without a run or request id its nearest ancestor's."""
    by_id = {span["id"]: span for span in spans}

    for span in spans:
        chain = []
        while span is not None and span["rid"] is None:
            chain.append(span)
            span = by_id.get(span["parent"])
        for item in chain:
            item["rid"] = span["rid"] if span is not None else None


def _innermost_segments(spans: list[dict]):
    """``(start, end, span)`` pieces of one timeline's properly nested spans."""
    segments = []
    stack: list[dict] = []
    cursor = float("-inf")

    def emit(until: float) -> None:
        nonlocal cursor
        if stack and until > cursor:
            segments.append((cursor, until, stack[-1]))
        cursor = max(cursor, until)

    for span in sorted(spans, key=lambda item: (item["start"], -item["end"])):
        while stack and stack[-1]["end"] <= span["start"]:
            emit(stack[-1]["end"])
            stack.pop()
        emit(span["start"])
        stack.append(span)
    while stack:
        emit(stack[-1]["end"])
        stack.pop()
    return segments


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[dict], window_start: float, window_end: float) -> dict:
    """Per-layer metrics of one traced run (names and units: BENCHMARK.json)."""
    timelines = defaultdict(list)
    for span in spans:
        timelines[(span["pid"], span["tid"])].append(span)
    own = defaultdict(float)  # span id -> time it was the innermost span
    events = []
    for key, items in timelines.items():
        for start, end, span in _innermost_segments(items):
            own[span["id"]] += end - start
            start, end = max(start, window_start), min(end, window_end)
            if end > start:
                events.append((start, 1, key, span))
                events.append((end, 0, key, span))
    events.sort(key=lambda event: (event[0], event[1]))

    wall = defaultdict(float)
    active: dict = {}

    def share(duration: float) -> None:
        if duration <= 0.0:
            return
        busy = [span for span in active.values() if not span["passive"]]
        group = busy or list(active.values())
        if not group:
            wall["other"] += duration
            return
        for span in group:
            wall[span["layer"]] += duration / len(group)

    cursor = window_start
    for moment, starting, key, span in events:
        share(moment - cursor)
        cursor = max(cursor, moment)
        if starting:
            active[key] = span
        elif active.get(key) is span:
            del active[key]
    share(window_end - cursor)

    by_name = defaultdict(list)
    by_id = {}
    for span in spans:
        by_name[span["name"]].append(span)
        by_id[span["id"]] = span

    def duration(span):
        return span["end"] - span["start"]

    def outer_busy(prefix: str) -> float:
        """Summed duration of spans named ``prefix*`` not nested in another such span."""
        total = 0.0
        for span in spans:
            if span["name"].startswith(prefix):
                parent = by_id.get(span["parent"])
                if parent is None or not parent["name"].startswith(prefix):
                    total += duration(span)
        return total

    metrics = {f"{layer}.self_s": wall[layer] for layer in LAYERS}
    metrics["other.self_s"] = wall["other"]
    metrics["trace.run_s"] = window_end - window_start

    steps = by_name["traffic.step"]
    requests = sum(span.get("yielded", 0) for span in steps)
    metrics["traffic.requests"] = requests
    metrics["traffic.busy_s"] = sum(duration(span) for span in steps)

    configure = by_name["manager.configure"]
    metrics["manager.configure.calls"] = len(configure)
    metrics["manager.configure_degraded.calls"] = len(by_name["manager.configure_degraded"])
    metrics["manager.configure.self_s"] = sum(own[span["id"]] for span in configure)
    metrics["manager.configure.per_transfer"] = len(configure) / requests if requests else 0.0

    points = by_name["link.design_point"]
    misses = [span for span in points if not span["hit"]]
    metrics["link.design_point.calls"] = len(points)
    metrics["link.design_point.misses"] = len(misses)
    metrics["link.design_point.hit_ratio"] = 1.0 - len(misses) / len(points) if points else 0.0
    metrics["link.design_point.solve_s"] = sum(duration(span) for span in misses)
    for short, name in (("crosstalk", "link.crosstalk"), ("raw_ber_solve", "link.raw_ber_solve")):
        metrics[f"link.{short}.calls"] = len(by_name[name])
        metrics[f"link.{short}.busy_s"] = outer_busy(name)

    runs = by_name["netsim.run"]
    run_self = sum(own[span["id"]] for span in runs)
    events_total = sum(span.get("events", 0) for span in runs)
    metrics["netsim.run.calls"] = len(runs)
    metrics["netsim.run.self_s"] = run_self
    metrics["netsim.events"] = events_total
    metrics["netsim.events_per_self_s"] = events_total / run_self if run_self else 0.0

    metrics["outcomes.calls"] = sum(len(items) for name, items in by_name.items() if name.startswith("outcomes."))
    metrics["outcomes.busy_s"] = outer_busy("outcomes.")
    metrics["metrics.busy_s"] = outer_busy("metrics.")
    metrics["coding.blocks"] = sum(span.get("blocks", 0) for span in by_name["coding.linksim_run"])
    metrics["coding.busy_s"] = outer_busy("coding.")

    shards = by_name["orchestrator.shard"]
    shard_busy = sum(duration(span) for span in shards)
    capacity = sum(duration(span) * span.get("jobs", 1) for span in by_name["orchestrator.run_experiment"])
    metrics["orchestrator.shards"] = len(shards)
    metrics["orchestrator.shard_busy_s"] = shard_busy
    metrics["orchestrator.merge_s"] = sum(duration(span) for span in by_name["orchestrator.merge"])
    metrics["orchestrator.io_s"] = outer_busy("io.")
    metrics["orchestrator.pool_efficiency"] = shard_busy / capacity if capacity else 0.0

    metrics.update(_service_metrics(by_name, by_id, duration))
    return metrics


def _service_metrics(by_name, by_id, duration) -> dict:
    # Handler time of GET /design, split by whether its design point was cached.
    hits, misses = [], []
    for span in by_name["link.design_point"]:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["name"] == "service.http":
            (hits if span["hit"] else misses).append(duration(parent) * 1e3)
    submitted = {span["rid"]: span["end"] for span in by_name["service.queue.submit"] if span["persist"]}
    claimed = {span["rid"]: span["end"] for span in by_name["service.queue.claim_next"] if span["persist"]}
    fetched = {}
    for span in sorted(by_name["service.store.get"], key=lambda item: item["start"]):
        # The supervisor's verification read is the first read after the claim.
        if span["rid"] in claimed and span["start"] >= claimed[span["rid"]]:
            fetched.setdefault(span["rid"], span["start"])
    done = {
        span["rid"]: span["end"]
        for span in by_name["service.queue.transition"]
        if span.get("state") == "done"
    }
    queue_spans = [
        span
        for name, items in by_name.items()
        if name.startswith("service.queue.")
        for span in items
        if span.get("persist")
    ]
    return {
        "service.design.hit_ms": _median(hits),
        "service.design.miss_ms": _median(misses),
        "service.job.queue_wait_s": _median(claimed[job] - submitted[job] for job in claimed if job in submitted),
        "service.job.worker_s": _median(fetched[job] - claimed[job] for job in fetched),
        "service.job.finalize_s": _median(done[job] - fetched[job] for job in fetched if job in done),
        "service.queue.persist_calls": len(queue_spans),
        "service.queue.persist_s": sum(duration(span) for span in queue_spans),
    }


def import_metrics(importtime_text: str) -> dict:
    """``import.*`` from ``python -X importtime`` output (stderr).

    A top-level (unindented) entry owns every entry printed since the
    previous top-level one; entries owned by a ``repro`` top-level entry
    are the ``repro`` package's import.
    """
    total_us = scipy_us = 0
    modules = 0
    group: list[tuple[int, str]] = []
    for line in importtime_text.splitlines():
        fields = line.split("|", 2)
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        try:
            self_us = int(fields[0].split(":", 1)[1])
            cumulative_us = int(fields[1])
        except ValueError:  # the header line
            continue
        name = fields[2][1:]
        group.append((self_us, name.strip()))
        if not name.startswith(" "):
            if name.startswith("repro"):
                total_us += cumulative_us
                modules += len(group)
                scipy_us += sum(
                    us for us, module in group if module == "scipy" or module.startswith("scipy.")
                )
            group = []
    return {
        "import.total_s": total_us / 1e6,
        "import.scipy_s": scipy_us / 1e6,
        "import.modules": modules,
    }
