"""Test oracle: the per-event reference loop of the network simulator.

:class:`ReferenceSimulator` is a :class:`~repro.netsim.NetworkSimulator`
whose ``run`` drains a plain heap of :class:`Event` objects one handler
call per event, asks the manager once per arrival, goes through the real
:class:`~repro.interconnect.arbitration.TokenArbiter` per attempt and
draws each probabilistic attempt's outcome the moment it is scheduled.
It shares the simulator's cold-path handlers (faults, deferrals,
finalisation, metrics) but none of the event loop's specialisations —
no epoch flushes, no configuration memo, no parked records, no inline
arbiter replay — so it is the independent implementation the one loop
(:func:`repro.netsim.epoch.run_batched`) is pinned against, byte for byte,
by ``test_engine_parity.py``.  The benchmarks time it as the baseline
the loop's speed-up is measured against.

Not a test module: the name keeps pytest from collecting it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.exceptions import ConfigurationError, InfeasibleDesignError, SimulationError
from repro.manager.manager import CommunicationRequest
from repro.netsim.engine import (
    NetTransferRecord,
    NetworkResult,
    NetworkSimulator,
    _RunState,
    _TransferState,
)
from repro.netsim.events import EventKind
from repro.netsim.outcomes import TransmissionOutcome, packets_for_payload
from repro.obs import tracing as obs_tracing

__all__ = ["Event", "EventQueue", "ReferenceSimulator"]


@dataclass(frozen=True, order=True, slots=True)
class Event:
    """One scheduled state change, totally ordered by ``(time, sequence)``."""

    time_s: float
    sequence: int
    kind: EventKind = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Min-heap of :class:`Event` objects with deterministic tie-breaking."""

    __slots__ = ("_heap", "_sequence", "_processed")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._sequence = 0
        self._processed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def events_processed(self) -> int:
        """Number of events popped so far."""
        return self._processed

    def push(self, time_s: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns the stored (sequenced) event."""
        if time_s < 0.0:
            raise ConfigurationError("event time cannot be negative")
        event = Event(time_s=float(time_s), sequence=self._sequence, kind=kind, payload=payload)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest pending event."""
        if not self._heap:
            raise ConfigurationError("cannot pop from an empty event queue")
        self._processed += 1
        return heapq.heappop(self._heap)

    def drain(self) -> Iterator[Event]:
        """Iterate events in simulation order until the queue runs dry."""
        while self._heap:
            yield self.pop()


@dataclass(slots=True)
class _OracleRunState(_RunState):
    """The simulator's run state plus the oracle's event queue."""

    queue: EventQueue = field(default_factory=EventQueue)


class ReferenceSimulator(NetworkSimulator):
    """:class:`NetworkSimulator` driven by the per-event reference loop."""

    def run(self, requests: Iterable) -> NetworkResult:
        tracer = obs_tracing.ACTIVE
        if tracer is None:
            return self._run_reference(requests)
        with tracer.span("netsim.run", mode=self.mode):
            return self._run_reference(requests)

    def _run_reference(self, requests: Iterable) -> NetworkResult:
        run = _OracleRunState()
        if self._controller is not None:
            self._controller.reset()
        if self._failures is not None:
            # One LINK_FAULT per compiled health transition; pushed before
            # the arrivals so a fault coinciding with an arrival is applied
            # first (matching the bisect semantics of health queries).
            for transition in self._failures.transitions():
                run.queue.push(transition.time_s, EventKind.LINK_FAULT, transition)
        count = 0
        for request in requests:
            run.queue.push(request.arrival_time_s, EventKind.ARRIVAL, request)
            count += 1
        if count == 0:
            raise ConfigurationError("a simulation needs at least one request")

        # Bind the handlers and kinds once instead of resolving the
        # attribute chain per event.
        handle_arrival = self._handle_arrival
        handle_departure = self._handle_departure
        arrival = EventKind.ARRIVAL
        departure = EventKind.DEPARTURE
        retry = EventKind.RETRY
        event = None
        try:
            for event in run.queue.drain():
                kind = event.kind
                if kind is arrival:
                    handle_arrival(event.time_s, event.payload, run)
                elif kind is departure:
                    handle_departure(event.time_s, event.payload, run)
                elif kind is retry:
                    self._schedule_attempt(event.payload, event.time_s, run)
                else:
                    self._handle_link_fault(event.time_s, event.payload, run)
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(
                f"{event.kind.name} handler failed at t={event.time_s:.9e}s "
                f"(event #{run.queue.events_processed}): {exc}"
            ) from exc
        run.end_s = event.time_s
        run.events_processed = run.queue.events_processed
        return self._finish_run(run)

    def _handle_arrival(self, now_s, request, run: _OracleRunState) -> None:
        communication = CommunicationRequest(
            source=request.source,
            destination=request.destination,
            target_ber=request.target_ber,
            payload_bits=request.payload_bits,
            policy=self.policy,
        )
        margin = 1.0
        if self._controller is not None:
            multiplier = (
                self._dynamics.multiplier(request.destination, now_s)
                if self._dynamics is not None
                else 1.0
            )
            margin, switched = self._controller.margin_for(
                request.destination, now_s, true_multiplier=multiplier
            )
            if switched:
                self._record_switch(run, now_s)
        try:
            if self._degradation is not None:
                health = self._failures.health(request.destination, now_s)
                configuration, _action = self.manager.configure_degraded(
                    communication,
                    health,
                    self._degradation,
                    base_margin_multiplier=margin,
                )
                if configuration is None:
                    # The ladder declared the channel down: drop the request
                    # without spending a single attempt's energy on it.
                    self._drop_on_arrival(request, now_s, run)
                    return
            else:
                configuration = self.manager.configure(
                    communication, margin_multiplier=margin
                )
        except InfeasibleDesignError:
            run.records.append(
                NetTransferRecord(
                    source=request.source,
                    destination=request.destination,
                    payload_bits=request.payload_bits,
                    code_name=None,
                    arrival_time_s=now_s,
                    first_start_time_s=now_s,
                    completion_time_s=now_s,
                    attempts=0,
                    packets_total=0,
                    packets_sent=0,
                    packets_delivered=0,
                    packets_dropped=0,
                    packets_with_residual_errors=0,
                    residual_bit_errors=0,
                    coded_bits_sent=0,
                    energy_j=0.0,
                    rejected=True,
                )
            )
            return
        packets = packets_for_payload(request.payload_bits, self.packet_bits)
        state = _TransferState(
            request=request,
            configuration=configuration,
            sampler=self._sampler_for(configuration),
            packets_total=packets,
            packets_remaining=packets,
            retries_left=self.max_retries if self.crc is not None else 0,
        )
        if self._dynamics is not None or self._failures is not None:
            state.design_raw_ber = self._raw_ber_for(configuration)
        if self.transfer_timeout_s is not None:
            state.deadline_s = now_s + self.transfer_timeout_s
        pair = (request.source, request.destination)
        run.active_pairs[pair] = run.active_pairs.get(pair, 0) + 1
        self._schedule_attempt(state, now_s, run)

    def _schedule_attempt(
        self, state, now_s, run: _OracleRunState, *, not_before_s: float | None = None
    ) -> None:
        """Reserve the destination channel for one attempt and time its end."""
        destination = state.request.destination
        request_time_s = now_s
        if not_before_s is not None and not_before_s > request_time_s:
            request_time_s = not_before_s
        if self._controller is not None:
            request_time_s = max(request_time_s, self._controller.blocked_until(destination))
        wavelengths = self.config.num_wavelengths
        rate_factor = 1.0
        action = None
        if self._failures is not None and self._degradation is not None:
            health = self._failures.health(destination, request_time_s)
            if health.down:
                retry_at = self._defer_or_drop(state, now_s, health, run)
                if retry_at is not None:
                    run.queue.push(retry_at, EventKind.RETRY, state)
                return
            action = self._degradation.action_for(health)
            if not action.serve:
                self._finalize_transfer(state, now_s, run, dropped=state.packets_remaining)
                return
            wavelengths = action.wavelengths
            rate_factor = (
                self.config.num_wavelengths / wavelengths
            ) * action.derate_factor
        duration_s = (
            state.packets_remaining
            * state.sampler.coded_bits_per_packet
            / self.channel_rate_bits_per_s
        )
        if rate_factor != 1.0:
            duration_s *= rate_factor
        arbiter = self._arbiter_for(destination, run.arbiters)
        start_s = arbiter.request(state.request.source, request_time_s, duration_s)
        if state.first_start_s < 0.0:
            state.first_start_s = start_s
        state.attempts += 1
        state.packets_sent += state.packets_remaining
        state.coded_bits_sent += state.packets_remaining * state.sampler.coded_bits_per_packet
        channel_power_w = state.configuration.channel_power_w * wavelengths
        attempt_energy_j = channel_power_w * duration_s
        state.energy_j += attempt_energy_j
        if self._dynamics is not None:
            multiplier = self._dynamics.multiplier(destination, start_s)
            state.attempt_raw_ber = min(1.0, state.design_raw_ber * multiplier)
        elif self._failures is not None:
            self._apply_attempt_health(state, destination, start_s, action)
        if not state.attempt_blacked_out:
            # Drawn at *schedule* time, in attempt-schedule order; a
            # blacked-out attempt consumes no randomness at all.
            if self.mode == "probabilistic":
                state.pending_outcome = state.sampler.sample(
                    state.packets_remaining,
                    raw_ber=state.attempt_raw_ber,
                    resolve_rng=self._resolve_rng,
                )
            else:
                state.pending_outcome = state.sampler.sample(state.packets_remaining)
        self._charge_trace(
            run, start_s, energy_j=attempt_energy_j, packets=state.packets_remaining
        )
        run.busy_s[destination] = run.busy_s.get(destination, 0.0) + duration_s
        run.queue.push(start_s + duration_s, EventKind.DEPARTURE, state)

    def _handle_departure(self, now_s, state, run: _OracleRunState) -> None:
        if state.attempt_blacked_out:
            state.attempt_blacked_out = False
            outcome = TransmissionOutcome(
                packets=state.packets_remaining,
                failed_detected=state.packets_remaining,
                delivered_with_errors=0,
                residual_bit_errors=0,
            )
        else:
            outcome = state.pending_outcome
            state.pending_outcome = None
            if self._controller is not None and self._controller.wants_observations:
                self._feed_controller(
                    now_s, state, outcome.packets, outcome.failed_detected, run
                )
        state.packets_delivered += outcome.delivered
        state.packets_with_residual_errors += outcome.delivered_with_errors
        state.residual_bit_errors += outcome.residual_bit_errors
        if outcome.failed_detected and state.retries_left > 0:
            state.packets_remaining = outcome.failed_detected
            not_before = now_s
            if self.retry_backoff_s > 0.0:
                not_before = now_s + self._retry_delay_s(state)
            if state.deadline_s is None or not_before <= state.deadline_s:
                state.retries_left -= 1
                self._schedule_attempt(state, now_s, run, not_before_s=not_before)
                return
        self._finalize_transfer(state, now_s, run, dropped=outcome.failed_detected)
