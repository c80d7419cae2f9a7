"""Throughput benchmark of the discrete-event network simulator.

Drives :class:`repro.netsim.NetworkSimulator` with uniform traffic at a
moderate load and reports how many simulated packet events and heap events
the engine retires per wall-clock second, writing the comparison to
``benchmarks/BENCH_netsim.json``.  The acceptance gates require the
default probabilistic mode — packet outcomes sampled batch-at-a-time from
the decoder's analytic frame-error probabilities — to clear 100k simulated
packet events per second, and the simulator's event loop to retire >= 10x
the events/s of the per-event reference loop (the test oracle in
``tests/netsim/reference_engine.py``) on the same workload while staying
byte-identical to it; the bit-exact mode (real codewords through the batch
coding API) is timed on a smaller workload for the speedup ratio.
Run either way::

    PYTHONPATH=src python benchmarks/bench_netsim.py
    pytest benchmarks/bench_netsim.py -q
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
from repro.experiments.network import request_rate_for_load  # noqa: E402
from repro.netsim import NetworkSimulator  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.obs import tracing as obs_tracing  # noqa: E402
from repro.traffic.generators import UniformTrafficGenerator  # noqa: E402
from reference_engine import ReferenceSimulator  # noqa: E402

NUM_REQUESTS = 2000
PAYLOAD_BITS = 65536
LOAD = 0.5
BITEXACT_REQUESTS = 60
PACKET_EVENT_GATE_PER_SEC = 100_000.0
#: The JSON artefact's acceptance gate: the event loop must retire >= 10x
#: the reference loop's events/s on this workload.
ENGINE_SPEEDUP_GATE = 10.0
#: The pytest gate uses a deliberately conservative floor instead — CI
#: runners are noisy and the regression it guards against (losing the
#: batched layout) shows up as ~1x, not ~8x.
ENGINE_SPEEDUP_FLOOR = 4.0
#: Observability overhead gates: with metrics+tracing *disabled* the event
#: loop must stay >= 0.95x of the stored baseline events/s (the no-op
#: guards must stay free; strict mode only — shared runners are noisy), and
#: with *full* instrumentation enabled it must keep >= 0.80x of the same
#: run's disabled throughput (always asserted — both legs share the noise).
OBS_DISABLED_RATIO_FLOOR = 0.95
OBS_ENABLED_RATIO_FLOOR = 0.80
_JSON_PATH = os.path.join(_HERE, "BENCH_netsim.json")


def _requests(num_requests: int, payload_bits: int, seed: int):
    rate = request_rate_for_load(LOAD, payload_bits=payload_bits)
    generator = UniformTrafficGenerator(
        12, mean_request_rate_hz=rate, payload_bits=payload_bits, seed=seed
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


def _timed_best(simulator: NetworkSimulator, requests, repeats: int) -> tuple[dict, object]:
    """Best-of-``repeats`` timing (rejects scheduler noise); returns a result too.

    Determinism makes the result of every repeat identical, so returning
    the last one is as good as returning the fastest one's.
    """
    best: dict | None = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = simulator.run(requests)
        seconds = time.perf_counter() - start
        if best is None or seconds < best["seconds"]:
            best = {
                "seconds": seconds,
                "transfers": len(result.records),
                "packets": result.packets_sent,
                "events": result.events_processed,
                "packets_per_sec": result.packets_sent / seconds,
                "events_per_sec": result.events_processed / seconds,
            }
    return best, result


def compare_engines(num_requests: int = NUM_REQUESTS, *, repeats: int = 5) -> dict:
    """Time the event loop against the reference oracle and check parity.

    Returns the timings of both (keyed ``batched`` for the simulator's loop
    and ``reference`` for the oracle) plus their events-per-second ratio;
    asserts (cheaply, as a dict field) that the two produced byte-identical
    records and metrics — the speedup claim is only meaningful if the loop
    is re-running the *same* simulation.
    """
    requests = _requests(num_requests, PAYLOAD_BITS, seed=7)
    timings: dict = {}
    results = {}
    for engine, simulator_class in (
        ("reference", ReferenceSimulator),
        ("batched", NetworkSimulator),
    ):
        simulator = simulator_class(seed=11)
        # Warm the manager's candidate/laser caches so the timing measures
        # the event loop, not the one-off operating-point solves.
        simulator.run(requests[:20])
        # The loop's runs are an order of magnitude shorter, so give it
        # proportionally more repeats to sample past timer noise.
        engine_repeats = repeats if engine == "reference" else 3 * repeats
        timings[engine], results[engine] = _timed_best(simulator, requests, engine_repeats)
    reference, batched = results["reference"], results["batched"]
    identical = (
        reference.records == batched.records
        and reference.metrics().as_dict() == batched.metrics().as_dict()
        and reference.events_processed == batched.events_processed
    )
    speedup = timings["batched"]["events_per_sec"] / timings["reference"]["events_per_sec"]
    return {
        "num_requests": num_requests,
        "engines": timings,
        "byte_identical": identical,
        "events_per_sec_speedup_batched_vs_reference": speedup,
        "engine_speedup_gate": ENGINE_SPEEDUP_GATE,
        "engine_gate_met": identical and speedup >= ENGINE_SPEEDUP_GATE,
    }


def measure_obs_overhead(num_requests: int = NUM_REQUESTS, *, repeats: int = 5) -> dict:
    """Event-loop throughput with observability off vs fully on.

    The *enabled* leg runs with an active metrics registry and a tracer
    sinking to ``/dev/null`` — the worst realistic instrumentation cost —
    and must stay within :data:`OBS_ENABLED_RATIO_FLOOR` of the same run's
    disabled throughput.  The disabled leg doubles as the stored-baseline
    probe: its events/s against the last ``BENCH_netsim.json`` guards the
    no-op fast path (strict mode only).  Byte-identity of the instrumented
    run's records is checked alongside — speed means nothing if the
    instrumentation perturbed the simulation.
    """
    requests = _requests(num_requests, PAYLOAD_BITS, seed=7)

    def timed(simulator: NetworkSimulator):
        # Warm the manager's candidate/laser caches so the comparison is
        # event-loop against event-loop.
        simulator.run(requests[:20])
        return _timed_best(simulator, requests, repeats)

    disabled, baseline = timed(NetworkSimulator(seed=11))
    with open(os.devnull, "w", encoding="utf-8") as sink:
        with obs_metrics.collecting(), obs_tracing.tracing_to(sink):
            enabled, instrumented = timed(NetworkSimulator(seed=11))
    stored = benchlib.read_bench_results(_JSON_PATH) or {}
    stored_events = (stored.get("probabilistic") or {}).get("events_per_sec")
    return {
        "num_requests": num_requests,
        "disabled": disabled,
        "enabled": enabled,
        "byte_identical": (
            baseline.records == instrumented.records
            and baseline.events_processed == instrumented.events_processed
            and baseline.metrics().as_dict() == instrumented.metrics().as_dict()
        ),
        "enabled_over_disabled_events_ratio": (
            enabled["events_per_sec"] / disabled["events_per_sec"]
        ),
        "disabled_over_stored_events_ratio": (
            disabled["events_per_sec"] / stored_events if stored_events else None
        ),
        "enabled_ratio_floor": OBS_ENABLED_RATIO_FLOOR,
        "disabled_ratio_floor": OBS_DISABLED_RATIO_FLOOR,
    }


def run_benchmark(
    num_requests: int = NUM_REQUESTS,
    bitexact_requests: int = BITEXACT_REQUESTS,
    *,
    include_probabilistic: bool = True,
    include_bit_exact: bool = True,
    include_engines: bool = False,
    include_obs_overhead: bool = False,
) -> dict:
    """Time the requested outcome modes; returns the comparison dict.

    Each pytest gate only asserts on one leg, so it excludes the other —
    ``main()`` runs both for the JSON artefact.
    """
    results: dict = {
        "load": LOAD,
        "payload_bits": PAYLOAD_BITS,
        "num_requests": num_requests,
        "packet_event_gate_per_sec": PACKET_EVENT_GATE_PER_SEC,
    }
    if include_probabilistic:
        requests = _requests(num_requests, PAYLOAD_BITS, seed=7)
        probabilistic = NetworkSimulator(seed=11)
        # Warm the manager's candidate/laser caches so the timing measures
        # the event loop, not the one-off operating-point solves.
        probabilistic.run(requests[:20])
        results["probabilistic"] = _timed_run(probabilistic, requests)
        results["gate_met"] = (
            results["probabilistic"]["packets_per_sec"] >= PACKET_EVENT_GATE_PER_SEC
        )
    if include_bit_exact:
        # The bit-exact leg runs CRC-free (the bit-serial CRC dominates
        # otherwise) on a smaller workload; the probabilistic reference for
        # the speedup ratio uses the identical configuration.
        small = _requests(bitexact_requests, 8192, seed=7)
        reference = NetworkSimulator(seed=11, crc=None, max_retries=0)
        reference.run(small[:5])
        results["probabilistic_small"] = _timed_run(reference, small)
        bitexact = NetworkSimulator(seed=11, mode="bit-exact", crc=None, max_retries=0)
        bitexact.run(small[:5])
        results["bit_exact"] = _timed_run(bitexact, small)
        results["probabilistic_speedup_vs_bit_exact"] = (
            results["probabilistic_small"]["packets_per_sec"]
            / results["bit_exact"]["packets_per_sec"]
        )
    if include_engines:
        results["engine_comparison"] = compare_engines(num_requests)
    if include_obs_overhead:
        results["observability"] = measure_obs_overhead(num_requests)
    return results


def test_probabilistic_mode_meets_packet_event_gate():
    """Acceptance gate: >= 100k simulated packet events/s in default mode."""
    results = run_benchmark(num_requests=600, include_bit_exact=False)
    assert results["probabilistic"]["packets_per_sec"] >= PACKET_EVENT_GATE_PER_SEC, results


def test_bit_exact_mode_completes_and_delivers():
    """Sanity: the bit-exact leg runs and delivers every packet at low BER."""
    results = run_benchmark(bitexact_requests=20, include_probabilistic=False)
    assert results["bit_exact"]["packets"] > 0
    assert results["bit_exact"]["transfers"] == 20


def test_observability_overhead_is_bounded():
    """CI gate: instrumentation stays cheap and changes no observable.

    The enabled/disabled ratio compares two timings from the same process
    seconds apart, so it is robust on shared runners and always asserted
    (best of three attempts rejects scheduler noise; the full 2000-request
    workload keeps each timed run well above the scheduler jitter that
    dominates sub-2ms measurements).  The disabled leg's ratio against the
    stored ``BENCH_netsim.json`` baseline guards the no-op fast path
    itself but compares across sessions, so — like the stored-ratio gate
    in ``bench_failures.py`` — it only arms under ``REPRO_BENCH_STRICT=1``.
    """
    best: dict | None = None
    for _ in range(3):
        comparison = measure_obs_overhead(repeats=3)
        assert comparison["byte_identical"], "instrumentation perturbed the simulation"
        if (
            best is None
            or comparison["enabled_over_disabled_events_ratio"]
            > best["enabled_over_disabled_events_ratio"]
        ):
            best = comparison
        if best["enabled_over_disabled_events_ratio"] >= OBS_ENABLED_RATIO_FLOOR:
            break
    assert best["enabled_over_disabled_events_ratio"] >= OBS_ENABLED_RATIO_FLOOR, best
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        ratio = best["disabled_over_stored_events_ratio"]
        assert ratio is None or ratio >= OBS_DISABLED_RATIO_FLOOR, best


def test_batched_engine_is_identical_and_faster():
    """The event loop re-runs the oracle's simulation, much faster.

    Byte-identity is asserted exactly; the speedup floor is conservative
    (the full >= 10x gate lives in the JSON artefact where timings come
    from a quiet host) so shared CI runners don't flake.
    """
    comparison = compare_engines(num_requests=600, repeats=3)
    assert comparison["byte_identical"], "loop and oracle diverged on the benchmark workload"
    assert (
        comparison["events_per_sec_speedup_batched_vs_reference"] >= ENGINE_SPEEDUP_FLOOR
    ), comparison


def main(argv: list[str] | None = None) -> int:
    args = benchlib.parse_args(argv, description=__doc__)
    results = run_benchmark(include_engines=True, include_obs_overhead=True)
    benchlib.write_bench_json(_JSON_PATH, "netsim", results)
    prob = results["probabilistic"]
    engines = results["engine_comparison"]
    obs = results["observability"]
    print(
        f"netsim probabilistic: {prob['packets_per_sec']:,.0f} packets/s, "
        f"{prob['events_per_sec']:,.0f} events/s over {prob['transfers']} transfers "
        f"({prob['packets']} packets); "
        f"bit-exact {results['bit_exact']['packets_per_sec']:,.0f} packets/s "
        f"({results['probabilistic_speedup_vs_bit_exact']:.1f}x slower), "
        f"gate >= {results['packet_event_gate_per_sec']:,.0f}: {results['gate_met']}"
    )
    print(
        f"reference oracle {engines['engines']['reference']['events_per_sec']:,.0f} ev/s, "
        f"event loop {engines['engines']['batched']['events_per_sec']:,.0f} ev/s "
        f"({engines['events_per_sec_speedup_batched_vs_reference']:.2f}x, "
        f"byte-identical: {engines['byte_identical']}), "
        f"gate >= {engines['engine_speedup_gate']:.0f}x: {engines['engine_gate_met']}"
    )
    print(
        f"observability: instrumented/disabled events ratio "
        f"{obs['enabled_over_disabled_events_ratio']:.3f} "
        f"(floor {OBS_ENABLED_RATIO_FLOOR}), byte-identical: {obs['byte_identical']}"
    )
    if args.history:
        benchlib.append_history(
            args.history,
            "netsim",
            {
                "probabilistic_packets_per_sec": prob["packets_per_sec"],
                "probabilistic_events_per_sec": prob["events_per_sec"],
                "bit_exact_packets_per_sec": results["bit_exact"]["packets_per_sec"],
                "engine_speedup_batched_vs_reference": engines[
                    "events_per_sec_speedup_batched_vs_reference"
                ],
                "obs_enabled_over_disabled_events_ratio": obs[
                    "enabled_over_disabled_events_ratio"
                ],
            },
        )
    print(f"[wrote {_JSON_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
