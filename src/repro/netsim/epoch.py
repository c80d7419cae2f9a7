"""The event loop of the network simulator.

:func:`run_batched` is the only event loop behind
:meth:`repro.netsim.engine.NetworkSimulator.run`.  Every run, whatever its
features, drains through the same skeleton:

**Merge-ordered events.**  The bulk of the event stream (arrivals, fault
transitions) is known before the run starts, so it is sequenced and sorted
once (:class:`~repro.netsim.events.EpochEventCore`) and consumed by cursor;
only run-time events (departures, retries) go through a small heap of
``(time, sequence, kind, payload)`` tuples.  Sequence numbers are unique and
assigned in push order, static events first, which is the reference total
order ``(time, insertion sequence)``.

**Seq-ordered epoch flushes.**  Every probabilistic attempt consumes exactly
one double from the primary stream, compared against its attempt-level
failure probability; failing attempts resolve from a separate stream (see
:mod:`repro.netsim.outcomes`).  The loop therefore does not draw when an
attempt is scheduled — it queues ``(sequence, failure probability, ...)``
and keeps going.  The first departure whose sequence number is at or past
the oldest queued gate *flushes* the epoch: one ``Generator.random`` call
covers every queued attempt in schedule order, and only the flagged
attempts — rare at the BERs links are designed for — run the conditional
resolution.  ``Generator.random`` fills requests sequentially from the bit
stream, so one flush of N gates consumes exactly the doubles N per-attempt
draws would.

**Flags, not loops.**  Which branches a run takes is decided once, from the
simulator's configuration: the controller (margins, blocked channels,
telemetry), channel dynamics, the fault timeline and degradation ladder,
the interval trace and bit-exact sampling each switch on their own code.
A run with none of the per-attempt observers (probabilistic, no
controller, dynamics, faults or trace — the common sweep and benchmark
shape) *parks* each transfer: its first attempt is pushed as the optimistic
finished :class:`~repro.netsim.engine.NetTransferRecord` with its gate
queued, and only a gate the flush flags materialises a
:class:`~repro.netsim.engine._TransferState`.  Clean transfers allocate no
state and call no simulator method.  Re-attempts and observed runs go
through the one ``schedule_attempt`` below.

**Memoized configuration.**  The manager's answer is memoized per
``(target BER, margin)`` —
:meth:`~repro.manager.manager.OpticalLinkManager.configure` is deterministic
given those plus the simulator-constant policy — and, for parked runs, the
size-derived values of a transfer (packets, serialisation time, energy,
gate probability, coded bits) per payload under that key.  Requests that
fail cheap validity checks take the real manager path so error behaviour is
unchanged.  At the end of a parked run every channel pair that was granted
is released from the manager, as per-transfer finalisation would have.

The arbiter recurrence (token hops, busy window) is replayed inline on
per-channel lists — the expressions of
:meth:`~repro.interconnect.arbitration.TokenArbiter.request` — and written
back to the real arbiters at the end, so grant counts and channel state
land in the result unchanged.

**Determinism argument.**  Event order, stream consumption and every float
expression match the per-event reference loop kept as a test oracle in
``tests/netsim/reference_engine.py``; ``tests/netsim/test_engine_parity.py``
pins the two byte-identical across the fault x dynamics x policy grid.
"""

from __future__ import annotations

import heapq
from itertools import chain
from time import perf_counter
from typing import Iterable

from ..exceptions import ConfigurationError, InfeasibleDesignError, SimulationError
from ..manager.manager import CommunicationRequest
from ..obs import tracing as obs_tracing
from ..traffic.generators import TrafficRequest
from .engine import NetTransferRecord, NetworkResult, _RunState, _TransferState
from .events import EventKind, EpochEventCore
from .outcomes import TransmissionOutcome, packets_for_payload

__all__ = ["run_batched"]

#: Configuration-memo sentinel: this (target BER, margin) key is infeasible.
_REJECTED = object()


def run_batched(sim, requests: Iterable[TrafficRequest]) -> NetworkResult:
    """Drain a request sequence through the event loop.

    ``sim`` is the owning :class:`~repro.netsim.engine.NetworkSimulator`;
    cold paths (fault handling, degradation deferrals, finalisation) are
    its methods.
    """
    run = _RunState()
    controller = sim._controller
    if controller is not None:
        controller.reset()
    failures = sim._failures
    ARRIVAL = EventKind.ARRIVAL
    DEPARTURE = EventKind.DEPARTURE
    RETRY = EventKind.RETRY
    LINK_FAULT = EventKind.LINK_FAULT
    # Faults before arrivals: lower sequence numbers at equal times, so a
    # fault coinciding with an arrival is applied first.  The kinds are read
    # from locals: an enum member lookup costs ~0.2 us per event.
    faults: list[tuple] = (
        [(t.time_s, LINK_FAULT, t) for t in failures.transitions()]
        if failures is not None
        else []
    )
    core = EpochEventCore(
        chain(faults, ((r.arrival_time_s, ARRIVAL, r) for r in requests))
    )
    if len(core) == len(faults):
        raise ConfigurationError("a simulation needs at least one request")
    static = core._static
    n_static = len(static)

    # ------------------------------------------------------------- run flags
    dynamics = sim._dynamics
    degradation = sim._degradation
    probabilistic = sim.mode == "probabilistic"
    trace_on = sim._trace_interval_s is not None
    wants_obs = controller is not None and controller.wants_observations
    need_design_raw = dynamics is not None or failures is not None
    #: No per-attempt observer: a clean first attempt is fully known at
    #: schedule time, so the transfer is parked as its finished record.
    park = probabilistic and controller is None and not need_design_raw and not trace_on

    # ------------------------------------------------------------- hot locals
    manager = sim.manager
    policy = sim.policy
    packet_bits = sim.packet_bits
    retry_budget = sim.max_retries if sim.crc is not None else 0
    timeout_s = sim.transfer_timeout_s
    backoff_s = sim.retry_backoff_s
    num_onis = sim.config.num_onis
    num_wavelengths = sim.config.num_wavelengths
    channel_rate = sim.channel_rate_bits_per_s
    rng_random = sim._rng.random
    resolve_rng = sim._resolve_rng
    arbiters = run.arbiters
    busy_s = run.busy_s
    active_pairs = run.active_pairs
    records_append = run.records.append
    heap: list[tuple] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    Record = NetTransferRecord
    State = _TransferState
    # NamedTuple construction normally routes through a generated Python
    # __new__; building the tuple directly halves the cost of the one
    # per-transfer allocation a parked transfer has.
    tuple_new = tuple.__new__

    #: (target BER, margin) -> (configuration, sampler, design raw BER), or
    #: ``_REJECTED``.
    memo: dict[tuple, object] = {}
    #: Parked runs (margin 1): (target BER, payload bits) -> (configuration,
    #: sampler, packets, duration, energy, gate probability, coded bits,
    #: code name) — the size-derived values of a payload under its key.
    parked: dict[tuple, tuple] = {}
    #: destination -> [holder index, busy-until, writer->index, num writers,
    #: hop time, grants, busy seconds] — the arbiter recurrence state,
    #: replayed inline, plus the channel's accumulated serialisation time.
    channels: dict[int, list] = {}
    #: Flush queue of undrawn attempt gates, in schedule order.  Parked
    #: first attempts queue ``(seq, fail p, sampler, packets, request,
    #: configuration, start, energy, coded bits)``; stateful attempts queue
    #: ``(seq, fail p, sampler, packets, state, raw BER)``.
    pending: list[tuple] = []
    pending_append = pending.append
    #: seq -> _TransferState for the parked first attempts the gate flagged.
    flagged: dict[int, _TransferState] = {}

    def channel_for(destination: int) -> list:
        arbiter = sim._arbiter_for(destination, arbiters)
        entry = [
            arbiter._holder_index,
            arbiter._busy_until_s,
            {writer: index for index, writer in enumerate(arbiter.writers)},
            len(arbiter.writers),
            arbiter.token_hop_time_s,
            arbiter._grants,
            0.0,
        ]
        channels[destination] = entry
        return entry

    tracer = obs_tracing.ACTIVE

    def flush() -> None:
        """Resolve every queued gate in one epoch-wide primary draw."""
        begin = perf_counter() if tracer is not None else 0.0
        attempts = len(pending)
        for uniform, item in zip(rng_random(attempts).tolist(), pending):
            if uniform >= item[1]:
                continue
            sampler = item[2]
            packets = item[3]
            owner = item[4]
            if type(owner) is State:
                owner.pending_outcome = sampler.resolve_failed_attempt(
                    packets, raw_ber=item[5], resolve_rng=resolve_rng
                )
                continue
            # A flagged parked attempt: materialise the state its record
            # stood in for.
            seq, _p, _s, _n, request, configuration, start_s, energy_j, coded_bits = item
            state = State(
                request=request,
                configuration=configuration,
                sampler=sampler,
                packets_total=packets,
                packets_remaining=packets,
                retries_left=retry_budget,
            )
            state.first_start_s = start_s
            state.attempts = 1
            state.packets_sent = packets
            state.coded_bits_sent = coded_bits
            state.energy_j = energy_j
            state.pending_outcome = sampler.resolve_failed_attempt(
                packets, resolve_rng=resolve_rng
            )
            if timeout_s is not None:
                state.deadline_s = request.arrival_time_s + timeout_s
            pair = (request.source, request.destination)
            active_pairs[pair] = active_pairs.get(pair, 0) + 1
            flagged[seq] = state
        pending.clear()
        run.epoch_flushes += 1
        if tracer is not None:
            tracer.emit(
                "netsim.epoch_flush",
                perf_counter() - begin,
                {"attempts": attempts},
                start=begin,
            )

    def schedule_attempt(
        state, now_s: float, seq: int, not_before_s: float | None = None
    ) -> None:
        """Reserve the destination channel for one attempt and time its end.

        The arbiter grants in request order, charges the token hops from
        the current holder and queues behind the channel's busy window.
        ``seq`` is the sequence number of the one event this may push (the
        attempt's DEPARTURE or a deferral's RETRY); an unused number only
        leaves a gap, which does not change the order.  ``not_before_s`` is
        the ARQ backoff floor of a re-attempt.  Under a degradation ladder a
        down channel defers the attempt (blackout) or drops the transfer
        instead of serialising into the dark.
        """
        request = state.request
        destination = request.destination
        request_time_s = now_s
        if not_before_s is not None and not_before_s > request_time_s:
            request_time_s = not_before_s
        if controller is not None:
            # A channel mid-reconfiguration cannot accept the next transfer.
            blocked = controller.blocked_until(destination)
            if blocked > request_time_s:
                request_time_s = blocked
        wavelengths = num_wavelengths
        rate_factor = 1.0
        action = None
        if degradation is not None:
            health = failures.health(destination, request_time_s)
            if health.down:
                retry_at = sim._defer_or_drop(state, now_s, health, run)
                if retry_at is not None:
                    heappush(heap, (retry_at, seq, RETRY, state))
                return
            action = degradation.action_for(health)
            if not action.serve:
                sim._finalize_transfer(state, now_s, run, dropped=state.packets_remaining)
                return
            wavelengths = action.wavelengths
            rate_factor = (num_wavelengths / wavelengths) * action.derate_factor
        sampler = state.sampler
        remaining = state.packets_remaining
        coded_bits_pp = sampler.coded_bits_per_packet
        duration_s = remaining * coded_bits_pp / channel_rate
        if rate_factor != 1.0:
            # Remapped / derated attempts serialise slower.
            duration_s *= rate_factor
        source = request.source
        channel = channels.get(destination)
        if channel is None:
            channel = channel_for(destination)
        target = channel[2][source]
        busy = channel[1]
        hops = (target - channel[0]) % channel[3]
        base = request_time_s if request_time_s > busy else busy
        start_s = base + hops * channel[4]
        departure_time = start_s + duration_s
        channel[0] = target
        channel[1] = departure_time
        grants = channel[5]
        grants[source] = grants[source] + 1
        if state.first_start_s < 0.0:
            state.first_start_s = start_s
        state.attempts += 1
        state.packets_sent += remaining
        state.coded_bits_sent += remaining * coded_bits_pp
        attempt_energy_j = state.configuration.channel_power_w * wavelengths * duration_s
        state.energy_j += attempt_energy_j
        if dynamics is not None:
            # The attempt is corrupted at the channel conditions of its
            # serialisation start.
            multiplier = dynamics.multiplier(destination, start_s)
            state.attempt_raw_ber = min(1.0, state.design_raw_ber * multiplier)
        elif failures is not None:
            sim._apply_attempt_health(state, destination, start_s, action)
        if not state.attempt_blacked_out:
            # A blacked-out attempt's loss is certain and draws nothing.
            if probabilistic:
                raw = state.attempt_raw_ber
                pending_append(
                    (
                        seq,
                        sampler.attempt_failure_probability(remaining, raw),
                        sampler,
                        remaining,
                        state,
                        raw,
                    )
                )
                # Clean unless the epoch flush flags the gate.
                state.pending_outcome = None
            else:
                state.pending_outcome = sampler.sample(remaining)
        if trace_on:
            sim._charge_trace(run, start_s, energy_j=attempt_energy_j, packets=remaining)
        channel[6] += duration_s
        heappush(heap, (departure_time, seq, DEPARTURE, state))

    def append_rejected(request, now_s: float) -> None:
        """Record a request no configuration can serve."""
        records_append(
            Record(
                request.source, request.destination, request.payload_bits, None,
                now_s, now_s, now_s,
                0, 0, 0, 0, 0, 0, 0, 0, 0.0, True,
            )
        )

    def configured(request, margin: float, now_s: float):
        """The memoized manager answer for a request, or ``None`` if rejected.

        A cold request — or one failing the cheap validity checks — takes
        the real manager path, so validation errors surface unchanged.
        """
        key = (request.target_ber, margin)
        entry = memo.get(key)
        source = request.source
        destination = request.destination
        if (
            entry is None
            or source == destination
            or request.payload_bits <= 0
            or source < 0
            or source >= num_onis
            or destination < 0
            or destination >= num_onis
        ):
            communication = CommunicationRequest(
                source=request.source,
                destination=request.destination,
                target_ber=request.target_ber,
                payload_bits=request.payload_bits,
                policy=policy,
            )
            try:
                configuration = manager.configure(communication, margin_multiplier=margin)
            except InfeasibleDesignError:
                entry = _REJECTED
            else:
                entry = (
                    configuration,
                    sim._sampler_for(configuration),
                    sim._raw_ber_for(configuration) if need_design_raw else 0.0,
                )
            memo[key] = entry
        if entry is _REJECTED:
            append_rejected(request, now_s)
            return None
        return entry

    # --------------------------------------------------------------- the loop
    events = 0
    cursor = 0
    sequence = n_static
    time_s = 0.0
    kind = ARRIVAL
    try:
        while True:
            if cursor < n_static:
                event = static[cursor]
                static_time = event[0]
            else:
                event = None
            # Dynamic events strictly before the next static one pop first;
            # at equal times the static event wins (its sequence number is
            # smaller than every dynamic one).
            while heap and (event is None or heap[0][0] < static_time):
                time_s, seq, kind, payload = heappop(heap)
                events += 1
                if pending and seq >= pending[0][0]:
                    # This event was scheduled after the oldest queued gate:
                    # if it is a departure, its own gate is queued, so flush
                    # the epoch.  (A flush never changes what is drawn, only
                    # when.)
                    flush()
                if type(payload) is Record:
                    # A parked record: finished unless its gate was flagged.
                    if not flagged or (state := flagged.pop(seq, None)) is None:
                        records_append(payload)
                        continue
                elif kind is RETRY:
                    schedule_attempt(payload, time_s, sequence)
                    sequence += 1
                    continue
                else:
                    state = payload
                if state.attempt_blacked_out:
                    # The channel was dark when serialisation started: every
                    # packet is lost, detectably even without a CRC, and no
                    # telemetry is observed.
                    state.attempt_blacked_out = False
                    remaining = state.packets_remaining
                    outcome = TransmissionOutcome(
                        packets=remaining,
                        failed_detected=remaining,
                        delivered_with_errors=0,
                        residual_bit_errors=0,
                    )
                else:
                    outcome = state.pending_outcome
                    state.pending_outcome = None
                    if outcome is None:
                        # Clean attempt: deliver every packet without
                        # materialising an outcome object.
                        remaining = state.packets_remaining
                        if wants_obs:
                            sim._feed_controller(time_s, state, remaining, 0, run)
                        state.packets_delivered += remaining
                        sim._finalize_transfer(state, time_s, run, dropped=0)
                        continue
                    if wants_obs:
                        sim._feed_controller(
                            time_s, state, outcome.packets, outcome.failed_detected, run
                        )
                failed = outcome.failed_detected
                state.packets_delivered += outcome.packets - failed
                state.packets_with_residual_errors += outcome.delivered_with_errors
                state.residual_bit_errors += outcome.residual_bit_errors
                if failed and state.retries_left > 0:
                    state.packets_remaining = failed
                    not_before = time_s
                    if backoff_s > 0.0:
                        not_before = time_s + sim._retry_delay_s(state)
                    if state.deadline_s is None or not_before <= state.deadline_s:
                        state.retries_left -= 1
                        schedule_attempt(state, time_s, sequence, not_before)
                        sequence += 1
                        continue
                    # The backed-off re-attempt would land past the
                    # transfer's deadline: give up now.
                sim._finalize_transfer(state, time_s, run, dropped=failed)
            if event is None:
                break
            cursor += 1
            events += 1
            time_s = static_time
            kind = event[2]
            if park:
                # Every static event is an arrival (a parked run has no
                # fault timeline).
                request = event[3]
                source = request.source
                destination = request.destination
                payload_bits = request.payload_bits
                key = (request.target_ber, payload_bits)
                size = parked.get(key)
                if (
                    size is None
                    # The validity checks of configured(), inlined.
                    or source == destination
                    or payload_bits <= 0
                    or source < 0
                    or source >= num_onis
                    or destination < 0
                    or destination >= num_onis
                ):
                    entry = configured(request, 1.0, time_s)
                    if entry is None:
                        continue
                    configuration, sampler, _design_raw = entry
                    packets = packets_for_payload(payload_bits, packet_bits)
                    coded_bits_pp = sampler.coded_bits_per_packet
                    duration_s = packets * coded_bits_pp / channel_rate
                    size = parked[key] = (
                        configuration,
                        sampler,
                        packets,
                        duration_s,
                        configuration.channel_power_w * num_wavelengths * duration_s,
                        sampler.attempt_failure_probability(packets),
                        packets * coded_bits_pp,
                        configuration.code_name,
                    )
                (
                    configuration,
                    sampler,
                    packets,
                    duration_s,
                    energy_j,
                    fail_p,
                    coded_bits,
                    code_name,
                ) = size
                channel = channels.get(destination)
                if channel is None:
                    channel = channel_for(destination)
                target = channel[2][source]
                busy = channel[1]
                hops = (target - channel[0]) % channel[3]
                base = time_s if time_s > busy else busy
                start_s = base + hops * channel[4]
                departure_time = start_s + duration_s
                channel[0] = target
                channel[1] = departure_time
                grants = channel[5]
                grants[source] = grants[source] + 1
                channel[6] += duration_s
                # Park the optimistic finished record and queue the gate;
                # the epoch flush swaps in a state if the draw flags it.
                pending_append(
                    (
                        sequence,
                        fail_p,
                        sampler,
                        packets,
                        request,
                        configuration,
                        start_s,
                        energy_j,
                        coded_bits,
                    )
                )
                heappush(
                    heap,
                    (
                        departure_time,
                        sequence,
                        DEPARTURE,
                        tuple_new(
                            Record,
                            (
                                source,
                                destination,
                                payload_bits,
                                code_name,
                                request.arrival_time_s,
                                start_s,
                                departure_time,
                                1,
                                packets,
                                packets,
                                packets,
                                0,
                                0,
                                0,
                                coded_bits,
                                energy_j,
                                False,
                            ),
                        ),
                    ),
                )
                sequence += 1
                continue
            if kind is LINK_FAULT:
                sim._handle_link_fault(time_s, event[3], run)
                continue
            request = event[3]
            destination = request.destination
            margin = 1.0
            if controller is not None:
                multiplier = (
                    dynamics.multiplier(destination, time_s)
                    if dynamics is not None
                    else 1.0
                )
                margin, switched = controller.margin_for(
                    destination, time_s, true_multiplier=multiplier
                )
                if switched:
                    sim._record_switch(run, time_s)
            if degradation is None:
                entry = configured(request, margin, time_s)
                if entry is None:
                    continue
                configuration, sampler, design_raw = entry
            else:
                communication = CommunicationRequest(
                    source=request.source,
                    destination=destination,
                    target_ber=request.target_ber,
                    payload_bits=request.payload_bits,
                    policy=policy,
                )
                health = failures.health(destination, time_s)
                try:
                    configuration, _action = manager.configure_degraded(
                        communication,
                        health,
                        degradation,
                        base_margin_multiplier=margin,
                    )
                except InfeasibleDesignError:
                    append_rejected(request, time_s)
                    continue
                if configuration is None:
                    # The ladder declared the channel down: drop the request
                    # without spending an attempt's energy on it.
                    sim._drop_on_arrival(request, time_s, run)
                    continue
                sampler = sim._sampler_for(configuration)
                design_raw = sim._raw_ber_for(configuration)
            packets = packets_for_payload(request.payload_bits, packet_bits)
            state = State(
                request=request,
                configuration=configuration,
                sampler=sampler,
                packets_total=packets,
                packets_remaining=packets,
                retries_left=retry_budget,
            )
            if need_design_raw:
                state.design_raw_ber = design_raw
            if timeout_s is not None:
                state.deadline_s = time_s + timeout_s
            pair = (request.source, destination)
            active_pairs[pair] = active_pairs.get(pair, 0) + 1
            schedule_attempt(state, time_s, sequence)
            sequence += 1
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(
            f"{kind.name} handler failed at t={time_s:.9e}s "
            f"(event #{events}): {exc}"
        ) from exc
    for destination, channel in channels.items():
        arbiter = arbiters[destination]
        arbiter._holder_index = channel[0]
        arbiter._busy_until_s = channel[1]
        busy_s[destination] = channel[6]
        if park:
            # Parked transfers skip finalisation, which is where a pair's
            # last transfer releases its manager entry.
            for source, grants in channel[5].items():
                if grants:
                    manager.release(source, destination)
    run.events_processed = events
    run.end_s = time_s
    return sim._finish_run(run)
