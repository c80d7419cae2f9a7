"""Differential parity harness: the one event loop vs the test oracle.

The simulator's event loop (:func:`repro.netsim.epoch.run_batched`) claims
*byte-identical* results to the per-event reference loop kept as a test
oracle in :mod:`reference_engine` — same records, same metrics, same
interval traces, same event counts — across every feature that rides the
hot path: fault timelines with the degradation ladder, channel drift with
static/adaptive/oracle controllers, ARQ backoff and timeouts, both outcome
modes, and parked transfers under many configuration-memo keys.  This
suite is the proof: every test runs the identical workload through both
(freshly built models on each side, same seeds everywhere) and asserts
equality of everything a :class:`~repro.netsim.engine.NetworkResult`
exposes, plus the manager's active-configuration table after the run.

The default grid keeps tier-1 fast; set ``REPRO_PARITY_LONG=1`` to sweep
the full fault x drift x policy x load x seed cross-product.
"""

from __future__ import annotations

import os
from dataclasses import replace
from itertools import product

import pytest
from reference_engine import ReferenceSimulator

from repro.config import DEFAULT_CONFIG
from repro.exceptions import SimulationError
from repro.manager.policies import (
    DeadlineConstrainedPolicy,
    DegradationLadder,
    margin_levels,
)
from repro.manager.runtime import AdaptiveEccController
from repro.netsim import NetworkSimulator, make_drift_model, make_fault_model
from repro.netsim.failures import FAULT_SCENARIOS
from repro.traffic.generators import BurstyTrafficGenerator, UniformTrafficGenerator

NUM_ONIS = DEFAULT_CONFIG.num_onis
NW = DEFAULT_CONFIG.num_wavelengths

DRIFT_PROFILES = ("thermal", "aging", "random-walk")
POLICIES = (None, "static", "adaptive", "oracle")

#: The two implementations under comparison, keyed as in the results dict.
SIMULATORS = {"reference": ReferenceSimulator, "one-loop": NetworkSimulator}

RESULT_FIELDS = (
    "records",
    "busy_s_by_reader",
    "grant_counts_by_reader",
    "num_channels",
    "events_processed",
    "configuration_switches",
    "reconfiguration_energy_j",
    "interval_trace",
    "channel_downtime_s",
    "fault_transitions",
    "recoveries",
    "recovery_time_s",
    "fault_horizon_s",
)


def _requests(count=200, seed=1, payload_bits=None):
    kwargs = {} if payload_bits is None else {"payload_bits": payload_bits}
    generator = UniformTrafficGenerator(
        NUM_ONIS, mean_request_rate_hz=5e8, seed=seed, **kwargs
    )
    return list(generator.generate(count))


#: Mixed BER targets cycled over a run; under a one-cycle deadline the
#: tightest is infeasible (only coded schemes reach it).
MIXED_TARGETS = (1e-3, 1e-6, 1e-9, 1e-12)


def _mixed_requests(count=200, seed=1):
    """Bursty variable payloads with the targets of :data:`MIXED_TARGETS`."""
    generator = BurstyTrafficGenerator(
        NUM_ONIS, mean_request_rate_hz=5e8, frame_bits=4096, seed=seed
    )
    return [
        replace(request, target_ber=MIXED_TARGETS[index % len(MIXED_TARGETS)])
        for index, request in enumerate(generator.generate(count))
    ]


def assert_identical(reference, one_loop) -> None:
    """Every observable of the two results must be equal, byte for byte."""
    for field in RESULT_FIELDS:
        assert getattr(reference, field) == getattr(one_loop, field), field
    assert reference.metrics().as_dict() == one_loop.metrics().as_dict()


def _active_table(manager) -> list:
    """The manager's applied configurations, as comparable values."""
    return sorted(
        (c.request.source, c.request.destination, c.code_name, c.margin_multiplier)
        for c in manager.active_configurations()
    )


def run_both(requests, *, scenario=None, drift=None, policy=None, policy_obj=None, **sim_kwargs):
    """Run the workload through the oracle and the one loop, freshly built.

    Fault models, drift processes and controllers are rebuilt per side
    from the same seeds, so neither run can leak state into the other.
    ``policy`` selects a controller mode; ``policy_obj`` is a manager
    selection policy passed straight through.
    """
    horizon = max(r.arrival_time_s for r in requests)
    results = {}
    tables = {}
    for name, simulator_class in SIMULATORS.items():
        kwargs = dict(sim_kwargs)
        if policy_obj is not None:
            kwargs["policy"] = policy_obj
        if scenario is not None:
            failures = make_fault_model(scenario, NUM_ONIS, NW, seed=5, horizon_s=horizon)
            if failures is not None:
                kwargs["failures"] = failures
                kwargs["degradation"] = DegradationLadder(
                    margins=margin_levels(4.0), num_wavelengths=NW
                )
        if drift is not None:
            kwargs["dynamics"] = make_drift_model(drift, NUM_ONIS, seed=17)
        if policy is not None:
            kwargs["controller"] = AdaptiveEccController(
                margins=margin_levels(4.0), mode=policy
            )
            kwargs["telemetry_seed"] = 99
        simulator = simulator_class(seed=11, **kwargs)
        results[name] = simulator.run(iter(requests))
        tables[name] = _active_table(simulator.manager)
    assert_identical(results["reference"], results["one-loop"])
    assert tables["reference"] == tables["one-loop"]
    return results["reference"]


class TestStaticPathParity:
    """The fast path: plain probabilistic runs, retries, rejects, traces."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_plain_run(self, seed):
        run_both(_requests(count=300, seed=seed))

    @pytest.mark.parametrize("payload_bits", [512, 4096, 65536])
    def test_payload_sizes(self, payload_bits):
        run_both(_requests(count=120, seed=4, payload_bits=payload_bits))

    def test_backoff_and_timeout(self):
        requests = _requests(count=200, seed=6)
        horizon = max(r.arrival_time_s for r in requests)
        run_both(
            requests,
            retry_backoff_s=horizon / 100,
            transfer_timeout_s=horizon,
        )

    def test_interval_trace(self):
        requests = _requests(count=200, seed=7)
        horizon = max(r.arrival_time_s for r in requests)
        result = run_both(requests, trace_interval_s=horizon / 16)
        assert result.interval_trace  # the comparison actually saw a trace

    def test_crc_free_single_shot(self):
        run_both(_requests(count=150, seed=8), crc=None, max_retries=0)

    def test_rejected_requests(self):
        """An infeasible policy produces identical rejected records."""
        result = run_both(
            _requests(count=80, seed=9),
            policy_obj=DeadlineConstrainedPolicy(max_communication_time=0.5),
            crc=None,
            max_retries=0,
        )
        assert all(record.rejected for record in result.records)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bursty_mixed_targets_with_an_infeasible_one(self, seed):
        """Many memo keys in one run: payloads x targets, one key rejected."""
        result = run_both(
            _mixed_requests(count=200, seed=seed),
            policy_obj=DeadlineConstrainedPolicy(max_communication_time=1.0),
        )
        records = result.records
        assert len({r.payload_bits for r in records}) > 50
        assert any(r.rejected for r in records)
        assert any(r.attempts > 1 for r in records)
        assert {r.code_name for r in records if not r.rejected} == {"w/o ECC"}

    @pytest.mark.parametrize("parked", [True, False], ids=["parked", "stateful"])
    def test_invalid_request_fails_identically(self, parked):
        """A memoized key never skips the manager's endpoint validation."""
        requests = _requests(count=40, seed=3)
        requests[-1] = replace(requests[-1], destination=NUM_ONIS)
        horizon = max(r.arrival_time_s for r in requests)
        kwargs = {} if parked else {"trace_interval_s": horizon / 4}
        messages = {}
        for name, simulator_class in SIMULATORS.items():
            with pytest.raises(SimulationError) as excinfo:
                simulator_class(seed=11, **kwargs).run(iter(requests))
            messages[name] = str(excinfo.value)
        assert messages["reference"] == messages["one-loop"]
        assert messages["one-loop"].startswith("ARRIVAL handler failed")

    def test_bit_exact_mode(self):
        run_both(
            _requests(count=30, seed=10, payload_bits=2048),
            mode="bit-exact",
            crc=None,
            max_retries=0,
        )


class TestFaultScenarioParity:
    """All six fault scenarios, with ladder + backoff + timeout riding along."""

    @pytest.mark.parametrize("scenario", FAULT_SCENARIOS)
    def test_scenario(self, scenario):
        requests = _requests(count=200, seed=1)
        horizon = max(r.arrival_time_s for r in requests)
        run_both(
            requests,
            scenario=scenario,
            retry_backoff_s=horizon / 100,
            transfer_timeout_s=horizon,
        )


class TestDriftAndPolicyParity:
    """Every drift process under every controller policy (and none)."""

    @pytest.mark.parametrize(
        "drift,policy", list(product(DRIFT_PROFILES, POLICIES))
    )
    def test_drift_policy(self, drift, policy):
        run_both(_requests(count=150, seed=2), drift=drift, policy=policy)


class TestLoadParity:
    """Load changes the retry/queueing mix; parity must not care."""

    @pytest.mark.parametrize("count,seed", [(60, 1), (400, 2)])
    def test_loads(self, count, seed):
        run_both(_requests(count=count, seed=seed))


class TestInstrumentedParity:
    """Observability on changes nothing a NetworkResult exposes."""

    @pytest.mark.parametrize("name", list(SIMULATORS))
    def test_tracing_and_metrics_leave_results_identical(self, name):
        import io

        from repro.obs import metrics as obs_metrics
        from repro.obs import tracing as obs_tracing

        requests = _requests(count=150, seed=8)
        horizon = max(r.arrival_time_s for r in requests)
        kwargs = dict(retry_backoff_s=horizon / 100, transfer_timeout_s=horizon)
        simulator_class = SIMULATORS[name]
        plain = simulator_class(seed=11, **kwargs).run(iter(requests))
        sink = io.StringIO()
        with obs_metrics.collecting() as registry, obs_tracing.tracing_to(sink):
            instrumented = simulator_class(seed=11, **kwargs).run(iter(requests))
            snapshot = registry.snapshot()
        assert_identical(plain, instrumented)
        assert sink.getvalue()  # spans actually flowed
        counters = snapshot["counters"]
        assert counters["netsim.events.total"] == plain.events_processed
        assert counters["netsim.events.total"] == (
            counters["netsim.events.arrival"]
            + counters["netsim.events.departure"]
            + counters["netsim.events.link_fault"]
            + counters["netsim.events.retry"]
        )
        assert counters["netsim.transfers.total"] == len(plain.records)

    def test_oracle_and_one_loop_publish_identical_metrics(self):
        from repro.obs import metrics as obs_metrics

        requests = _requests(count=150, seed=9)
        snapshots = {}
        for name, simulator_class in SIMULATORS.items():
            with obs_metrics.collecting() as registry:
                simulator_class(seed=11).run(iter(requests))
                snapshots[name] = registry.snapshot()
        # Cache hit patterns (the oracle asks the manager per transfer, the
        # loop memoizes per target and margin) and the epoch-flush counter
        # are loop-internal by design; every *simulation observable* —
        # netsim counters, gauges, histograms — must agree.
        def observable(snapshot):
            return {
                "counters": {
                    name: value
                    for name, value in snapshot["counters"].items()
                    if name.startswith("netsim.") and name != "netsim.epoch.flushes"
                },
                "gauges": snapshot["gauges"],
                "histograms": snapshot["histograms"],
            }

        assert observable(snapshots["reference"]) == observable(snapshots["one-loop"])


class TestOrchestratedParity:
    """A report built on the oracle equals the one loop's at any --jobs."""

    OPTIONS = {
        "patterns": ["uniform", "hotspot"],
        "loads": [0.25, 0.7],
        "policies": ["min-power"],
        "num_requests": 120,
        "payload_bits": 2048,
        "seed": 5,
        "rings": 2,
    }

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_one_loop_jobs_match_oracle_serial(self, jobs, monkeypatch):
        from repro.experiments import network
        from repro.experiments.orchestrator import run_experiment
        from repro.experiments.report import rows_to_csv

        with monkeypatch.context() as patch:
            # Serial, so the shards run in this process on the oracle.
            patch.setattr(network, "NetworkSimulator", ReferenceSimulator)
            reference = run_experiment("network", options=self.OPTIONS)
        one_loop = run_experiment("network", options=self.OPTIONS, jobs=jobs)
        assert reference[0] == one_loop[0]
        assert rows_to_csv(reference[1]) == rows_to_csv(one_loop[1])


@pytest.mark.skipif(
    not os.environ.get("REPRO_PARITY_LONG"),
    reason="set REPRO_PARITY_LONG=1 for the full parity cross-product",
)
class TestLongGridParity:
    """The full cross-product; minutes, not seconds — opt-in via env var."""

    @pytest.mark.parametrize(
        "scenario,policy,seed",
        list(product(FAULT_SCENARIOS, POLICIES, (1, 5))),
    )
    def test_faults_cross_policies(self, scenario, policy, seed):
        requests = _requests(count=250, seed=seed)
        horizon = max(r.arrival_time_s for r in requests)
        run_both(
            requests,
            scenario=scenario,
            policy=policy,
            retry_backoff_s=horizon / 100,
            transfer_timeout_s=horizon,
            trace_interval_s=horizon / 8,
        )

    @pytest.mark.parametrize(
        "drift,policy,count",
        list(product(DRIFT_PROFILES, POLICIES, (100, 500))),
    )
    def test_drift_cross_policies(self, drift, policy, count):
        run_both(_requests(count=count, seed=3), drift=drift, policy=policy)
