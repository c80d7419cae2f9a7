"""Regression benchmark: the fault machinery must not tax the fault-free path.

PR 6 threads hard-fault plumbing (health queries, degradation ladder, ARQ
backoff, availability accounting) through the network engine's hot event
loop.  This benchmark guards the deal the implementation made: **a simulator
constructed without a fault model pays nothing** — every fault branch hangs
off ``self._failures is not None`` checks that constant-fold to the legacy
path.  Two legs are timed:

* ``fault_free`` — the legacy constructor, identical workload to
  ``bench_netsim.py``.  Gated on the same absolute floor (100k simulated
  packet events/s).  The ratio against the stored ``BENCH_netsim.json``
  throughput is recorded for trend inspection; session-to-session timing
  noise on shared runners is ~15%, so the strict ``>= 0.95`` ratio assert
  only arms under ``REPRO_BENCH_STRICT=1``.
* ``faulted_ladder`` — the mixed hard-fault scenario with the degradation
  ladder, adaptive controller, backoff and timeouts all enabled: the
  worst-case per-event overhead, timed for the JSON artefact (no gate — the
  faulted path is allowed to cost what graceful degradation costs).

Run either way::

    PYTHONPATH=src python benchmarks/bench_failures.py
    pytest benchmarks/bench_failures.py -q
"""

from __future__ import annotations

import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)
# The per-event reference loop lives with the tests as the parity oracle;
# the benches time it as the baseline the event loop is measured against.
_ORACLE = os.path.join(os.path.dirname(_HERE), "tests", "netsim")
if _ORACLE not in sys.path:
    sys.path.insert(0, _ORACLE)

import benchlib  # noqa: E402
from repro.config import DEFAULT_CONFIG  # noqa: E402
from repro.experiments.network import request_rate_for_load  # noqa: E402
from repro.manager.policies import DegradationLadder, margin_levels  # noqa: E402
from repro.manager.runtime import AdaptiveEccController  # noqa: E402
from repro.netsim import NetworkSimulator, make_fault_model  # noqa: E402
from repro.traffic.generators import UniformTrafficGenerator  # noqa: E402
from reference_engine import ReferenceSimulator  # noqa: E402

NUM_REQUESTS = 2000
FAULTED_REQUESTS = 600
PAYLOAD_BITS = 65536
LOAD = 0.5
PACKET_EVENT_GATE_PER_SEC = 100_000.0
STORED_RATIO_FLOOR = 0.95
_JSON_PATH = os.path.join(_HERE, "BENCH_failures.json")
_NETSIM_JSON_PATH = os.path.join(_HERE, "BENCH_netsim.json")


def _requests(num_requests: int, seed: int):
    rate = request_rate_for_load(LOAD, payload_bits=PAYLOAD_BITS)
    generator = UniformTrafficGenerator(
        12, mean_request_rate_hz=rate, payload_bits=PAYLOAD_BITS, seed=seed
    )
    return list(generator.generate(num_requests))


def _timed_run(simulator: NetworkSimulator, requests) -> dict:
    start = time.perf_counter()
    result = simulator.run(requests)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "transfers": len(result.records),
        "packets": result.packets_sent,
        "events": result.events_processed,
        "packets_per_sec": result.packets_sent / seconds,
        "events_per_sec": result.events_processed / seconds,
    }


def _faulted_simulator(
    horizon_s: float, simulator_class: type = NetworkSimulator
) -> NetworkSimulator:
    """The full degradation stack: mixed faults, ladder, controller, ARQ."""
    config = DEFAULT_CONFIG
    failures = make_fault_model(
        "mixed", config.num_onis, config.num_wavelengths, seed=5, horizon_s=horizon_s
    )
    margins = margin_levels(max(failures.worst_case_penalty, 8.0))
    return simulator_class(
        config=config,
        seed=11,
        controller=AdaptiveEccController(margins=margins, mode="adaptive"),
        telemetry_seed=13,
        failures=failures,
        degradation=DegradationLadder(
            margins=margins, num_wavelengths=config.num_wavelengths
        ),
        retry_backoff_s=0.01 * horizon_s,
        transfer_timeout_s=0.5 * horizon_s,
    )


def stored_netsim_packets_per_sec() -> float | None:
    """Probabilistic-leg throughput recorded by the last bench_netsim run."""
    stored = benchlib.read_bench_results(_NETSIM_JSON_PATH)
    try:
        return float(stored["probabilistic"]["packets_per_sec"])
    except (KeyError, TypeError, ValueError):
        return None


def run_benchmark(
    num_requests: int = NUM_REQUESTS,
    faulted_requests: int = FAULTED_REQUESTS,
    *,
    include_fault_free: bool = True,
    include_faulted: bool = True,
    include_reference: bool = False,
) -> dict:
    results: dict = {
        "load": LOAD,
        "payload_bits": PAYLOAD_BITS,
        "num_requests": num_requests,
        "packet_event_gate_per_sec": PACKET_EVENT_GATE_PER_SEC,
        "stored_ratio_floor": STORED_RATIO_FLOOR,
    }
    if include_fault_free:
        requests = _requests(num_requests, seed=7)
        fault_free = NetworkSimulator(seed=11)
        # Warm the manager's candidate/laser caches so the timing measures
        # the event loop, not the one-off operating-point solves.
        fault_free.run(requests[:20])
        results["fault_free"] = _timed_run(fault_free, requests)
        results["gate_met"] = (
            results["fault_free"]["packets_per_sec"] >= PACKET_EVENT_GATE_PER_SEC
        )
        stored = stored_netsim_packets_per_sec()
        results["stored_netsim_packets_per_sec"] = stored
        results["ratio_vs_stored_netsim"] = (
            results["fault_free"]["packets_per_sec"] / stored
            if stored
            else None
        )
    if include_faulted:
        requests = _requests(faulted_requests, seed=7)
        horizon_s = requests[-1].arrival_time_s
        faulted = _faulted_simulator(horizon_s)
        faulted.run(requests[:20])
        results["faulted_ladder"] = _timed_run(_faulted_simulator(horizon_s), requests)
        if include_fault_free:
            results["fault_free_speedup_vs_faulted"] = (
                results["fault_free"]["packets_per_sec"]
                / results["faulted_ladder"]["packets_per_sec"]
            )
        if include_reference:
            # Pin the per-event reference loop (the test oracle) on the
            # identical faulted stack so the artefact records the event
            # loop's margin.
            reference = _faulted_simulator(horizon_s, ReferenceSimulator)
            reference.run(requests[:20])
            results["reference_baseline"] = _timed_run(
                _faulted_simulator(horizon_s, ReferenceSimulator), requests
            )
            results["batched_speedup_vs_reference"] = (
                results["faulted_ladder"]["packets_per_sec"]
                / results["reference_baseline"]["packets_per_sec"]
            )
    return results


def test_fault_free_path_meets_packet_event_gate():
    """Acceptance gate: the legacy constructor still clears 100k packets/s."""
    results = run_benchmark(num_requests=600, include_faulted=False)
    assert results["fault_free"]["packets_per_sec"] >= PACKET_EVENT_GATE_PER_SEC, results
    # The ratio against the stored baseline is informational by default
    # (shared-runner timing noise is ~15%); CI sets REPRO_BENCH_STRICT=0.
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        ratio = results["ratio_vs_stored_netsim"]
        assert ratio is None or ratio >= STORED_RATIO_FLOOR, results


def test_faulted_ladder_run_completes_and_recovers():
    """Sanity: the worst-case degradation stack runs end-to-end."""
    requests = _requests(200, seed=7)
    simulator = _faulted_simulator(requests[-1].arrival_time_s)
    result = simulator.run(requests)
    metrics = result.metrics()
    assert metrics.fault_transitions > 0
    assert metrics.availability < 1.0
    assert metrics.transfers_completed > 0


def main(argv: list[str] | None = None) -> int:
    args = benchlib.parse_args(argv, description=__doc__)
    results = run_benchmark(include_reference=True)
    benchlib.write_bench_json(_JSON_PATH, "failures", results)
    if args.history:
        benchlib.append_history(
            args.history,
            "failures",
            {
                "fault_free_packets_per_sec": results["fault_free"]["packets_per_sec"],
                "faulted_ladder_packets_per_sec": results["faulted_ladder"][
                    "packets_per_sec"
                ],
            },
        )
    free = results["fault_free"]
    faulted = results["faulted_ladder"]
    ratio = results["ratio_vs_stored_netsim"]
    ratio_text = f", ratio vs stored netsim: {ratio:.2f}" if ratio is not None else ""
    print(
        f"netsim fault-free: {free['packets_per_sec']:,.0f} packets/s "
        f"(gate >= {results['packet_event_gate_per_sec']:,.0f}: "
        f"{results['gate_met']}{ratio_text}); "
        f"faulted mixed+ladder: {faulted['packets_per_sec']:,.0f} packets/s "
        f"({results['fault_free_speedup_vs_faulted']:.1f}x slower than fault-free, "
        f"{results['batched_speedup_vs_reference']:.1f}x over the reference oracle)"
    )
    print(f"[wrote {_JSON_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
