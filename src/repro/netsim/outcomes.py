"""Packet-outcome sampling for the network simulator.

A transfer is carried as fixed-size packets, each protected by an optional
CRC and encoded with the link configuration's ECC.  What the engine needs
per (re)transmission attempt is only the *outcome*: how many packets failed
and were caught by the CRC (candidates for ARQ retransmission), how many
slipped through with residual errors, and how many payload bits those
residual errors corrupted.  Two interchangeable samplers produce that
outcome:

* :class:`ProbabilisticOutcomeSampler` — the fast default.  Per-block
  decode failures are i.i.d. Bernoulli in the decoder's analytic
  frame-error probability (:func:`repro.coding.theory.block_error_probability`,
  exact for the paper's Hamming codes), sampled as one attempt-level gate
  draw plus a conditional failed-block pattern for the rare attempts the
  gate flags; CRC escapes use the standard ``2^-width`` random-error
  approximation, and residual bit counts are drawn with the
  dominant-error-event conditional mean (a weight-``2t+1`` codeword error
  per failed block).  No codeword ever materialises, which is what keeps
  the engine in the 10^6 packets/s range.

  The sampler's stream contract is what makes the simulator's epoch
  flushes possible: every attempt consumes exactly *one* double from the primary
  stream — compared against the attempt-level failure probability
  ``1 - (1 - p_block)^(packets x blocks)``, so "any block failed" is
  decided without materialising per-block uniforms — while the
  data-dependent draws of the rare failing attempts (the conditional
  failed-block pattern, CRC escapes, residual-bit binomials) come from a
  separate *resolution* stream.  Because ``Generator.random`` fills
  sequentially from the bit stream, one vectorized primary draw for many
  attempts is bit-identical to per-attempt draws — so the event loop
  draws whole epochs at once (compare each queued attempt's uniform with
  :meth:`~ProbabilisticOutcomeSampler.attempt_failure_probability`, as
  :meth:`~ProbabilisticOutcomeSampler.outcome_from_uniform` does) and stays
  byte-identical to per-attempt :meth:`~ProbabilisticOutcomeSampler.sample`
  calls.  The per-block joint distribution is unchanged: the
  conditional pattern (first failed block truncated-geometric, the rest
  i.i.d. Bernoulli) is exactly i.i.d. per-block failures conditioned on at
  least one.
* :class:`BitExactOutcomeSampler` — the cross-validation twin.  Every
  packet is CRC-appended (batch table CRC), encoded, corrupted by a real
  fault-injection model
  (:class:`~repro.simulation.faults.IndependentErrorModel` /
  :class:`~repro.simulation.faults.BurstErrorModel`) and decoded — all on
  the packed ``uint64`` substrate: codewords, error masks and corrections
  stay packed end to end, residual payload errors are popcounts against
  per-block payload-column masks, and only the rare packets whose
  protected bits were actually disturbed re-run the CRC on their decoded
  bits.  Still slower than the probabilistic mode, but no longer by orders
  of magnitude — it is the ground truth the probabilistic mode is tested
  against (``tests/netsim/test_engine.py``).

Both samplers draw from engine-owned generators (a primary stream plus, for
the probabilistic sampler, the derived resolution stream), so a simulation's
outcome depends only on its seed and event order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..coding.base import decode_blocks_packed, encode_blocks_packed
from ..coding.crc import CyclicRedundancyCheck
from ..coding.packed import bit_weights, pack_bits, range_mask, unpack_bits
from ..coding.theory import block_error_probability
from ..exceptions import ConfigurationError

if hasattr(np, "bitwise_count"):
    _bitwise_count = np.bitwise_count
else:  # pragma: no cover - NumPy < 2.0 fallback
    from ..coding.packed import popcount_rows

    def _bitwise_count(words):
        return popcount_rows(words.reshape(-1, words.shape[-1])).reshape(words.shape[:-1] + (1,))


def _mask_popcounts(residual_frames: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per-packet popcounts of ``(P, bpp, W)`` residual words under ``(bpp, W)`` masks."""
    return _bitwise_count(residual_frames & masks[np.newaxis, :, :]).sum(
        axis=(1, 2), dtype=np.int64
    )


#: Word value of each in-word bit position, derived from the substrate's own
#: packing (endian-agnostic by construction).
_BIT_WEIGHTS = bit_weights()


def _packed_mask_from_positions(positions: np.ndarray, num_blocks: int, n: int) -> np.ndarray:
    """Packed ``(num_blocks, W)`` XOR mask with ones at flat bit ``positions``.

    Positions index the attempt's bits in row-major transmission order; the
    in-word placement comes from :func:`repro.coding.packed.bit_weights`,
    so it matches :func:`pack_bits` on any host.
    """
    num_words = -(-n // 64)
    mask = np.zeros(num_blocks * num_words, dtype=np.uint64)
    block, offset = np.divmod(positions, n)
    word, bit = np.divmod(offset, 64)
    np.bitwise_or.at(mask, block * num_words + word, _BIT_WEIGHTS[bit])
    return mask.reshape(num_blocks, num_words)

__all__ = [
    "TransmissionOutcome",
    "ProbabilisticOutcomeSampler",
    "BitExactOutcomeSampler",
    "packets_for_payload",
]


@dataclass(frozen=True, slots=True)
class TransmissionOutcome:
    """What happened to the packets of one (re)transmission attempt.

    ``slots=True``: the engine materialises one of these per transmission
    attempt, so the instance dict would be pure allocation overhead.
    """

    packets: int
    failed_detected: int
    delivered_with_errors: int
    residual_bit_errors: int

    @property
    def delivered(self) -> int:
        """Packets handed to the destination (clean or with escaped errors)."""
        return self.packets - self.failed_detected


def _frame_geometry(code, packet_bits: int, crc_width: int) -> int:
    """ECC blocks needed to carry one packet plus its CRC (zero padded)."""
    if packet_bits < 1:
        raise ConfigurationError("packet size must be at least one bit")
    return -(-(packet_bits + crc_width) // code.k)


class ProbabilisticOutcomeSampler:
    """Sample packet outcomes from analytic per-block failure probabilities.

    Parameters
    ----------
    code:
        The configured coding scheme (``n``, ``k``, ``correctable_errors``).
    raw_ber:
        Raw channel bit error probability at the link's operating point (or
        the fault model's long-run average when a burst model is active).
    packet_bits:
        Payload bits per packet.
    crc_width:
        CRC bits appended per packet; ``0`` disables detection entirely
        (every failed packet is delivered carrying residual errors).
    rng:
        The engine's generator; all draws consume this single stream.

    Residual *bit* counts are thinned to the payload fraction of the frame
    (errors landing in the CRC slot or zero padding do not corrupt
    payload), matching the bit-exact sampler's payload-column comparison.
    The packet-level ``delivered_with_errors`` flag stays frame-wide: any
    failed block marks the packet, payload-touching or not.
    """

    __slots__ = (
        "code", "raw_ber", "packet_bits", "crc_width", "blocks_per_packet",
        "_rng", "undetected_probability", "_payload_fraction",
        "_failure_params", "_disturb_cache", "_attempt_failure_cache",
        "block_failure_probability", "_residual_rate",
    )

    def __init__(
        self,
        code,
        raw_ber: float,
        *,
        packet_bits: int,
        crc_width: int = 0,
        rng: np.random.Generator,
    ):
        if not 0.0 <= raw_ber <= 1.0:
            raise ConfigurationError("raw BER must lie in [0, 1]")
        self.code = code
        self.raw_ber = float(raw_ber)
        self.packet_bits = int(packet_bits)
        self.crc_width = int(crc_width)
        self.blocks_per_packet = _frame_geometry(code, packet_bits, self.crc_width)
        self._rng = rng

        #: Probability a failed packet passes the CRC anyway (random-error
        #: approximation: a uniformly random remainder matches with 2^-w).
        self.undetected_probability = 2.0 ** (-self.crc_width) if self.crc_width else 1.0
        #: Fraction of the packet's frame occupied by payload.  Residual
        #: errors land uniformly over the frame's message bits; those in the
        #: CRC slot or the zero padding do not corrupt payload, so the
        #: sampled counts are thinned by this fraction — mirroring the
        #: bit-exact sampler, which only compares the payload columns.
        self._payload_fraction = self.packet_bits / (self.blocks_per_packet * int(code.k))
        #: (block failure probability, residual rate) per raw BER.  With a
        #: time-varying channel the engine passes the drifted raw BER per
        #: attempt; the drift model quantises its multipliers, so this cache
        #: stays small.
        self._failure_params: dict[float, tuple[float, float]] = {}
        self._disturb_cache: dict[float, float] = {}
        #: (num_packets, raw BER) -> attempt-level failure probability.
        self._attempt_failure_cache: dict[tuple, float] = {}
        self.block_failure_probability, self._residual_rate = self._params_for(self.raw_ber)

    def _params_for(self, raw_ber: float) -> tuple[float, float]:
        """Block failure probability and residual-bit rate at one raw BER."""
        cached = self._failure_params.get(raw_ber)
        if cached is not None:
            return cached
        if not 0.0 <= raw_ber <= 1.0:
            raise ConfigurationError("raw BER must lie in [0, 1]")
        t = int(getattr(self.code, "correctable_errors", 0))
        n, k = int(self.code.n), int(self.code.k)
        failure = block_error_probability(raw_ber, n, t)
        # Conditional mean residual message-bit errors per *failed* block.
        # For t >= 1 the dominant failure event (t+1 channel errors) leaves a
        # weight-(2t+1) codeword error, of which k/n lands in message bits;
        # for t = 0 it is the mean raw error count conditioned on >= 1.
        if t >= 1:
            mean = (2 * t + 1) * k / n
        elif failure > 0.0:
            mean = n * raw_ber / failure * (k / n)
        else:
            mean = 1.0
        mean = min(float(k), max(1.0, mean))
        # Per-bit rate of the 1 + Binomial(k-1, r) residual draw whose mean
        # matches the conditional expectation above.
        residual_rate = (mean - 1.0) / (k - 1) if k > 1 else 0.0
        self._failure_params[raw_ber] = (failure, residual_rate)
        return failure, residual_rate

    def failure_probability_for(self, raw_ber: float | None = None) -> float:
        """Per-block decode-failure probability at one raw BER (cached)."""
        if raw_ber is None:
            return self.block_failure_probability
        return self._params_for(float(raw_ber))[0]

    def primary_draw_count(self, num_packets: int) -> int:
        """Doubles one attempt consumes from the primary stream (always 1).

        Fixed and known before any randomness is drawn — the property the
        event loop relies on to draw many attempts' uniforms in
        one vectorized ``Generator.random`` call.
        """
        return 1

    def attempt_failure_probability(
        self, num_packets: int, raw_ber: float | None = None
    ) -> float:
        """Probability at least one block of the attempt fails to decode.

        ``1 - (1 - p_block)^(packets x blocks_per_packet)`` — the threshold
        the attempt's single primary uniform is compared against.  Cached
        per ``(num_packets, raw BER)``; the drift model quantises its
        multipliers and attempt sizes repeat (full transfers plus ARQ
        remainders), so the cache stays small.
        """
        key = (num_packets, raw_ber)
        cached = self._attempt_failure_cache.get(key)
        if cached is None:
            p = (
                self.block_failure_probability
                if raw_ber is None
                else self._params_for(float(raw_ber))[0]
            )
            blocks = num_packets * self.blocks_per_packet
            if p <= 0.0:
                cached = 0.0
            elif p >= 1.0:
                cached = 1.0
            else:
                cached = -math.expm1(blocks * math.log1p(-p))
            self._attempt_failure_cache[key] = cached
        return cached

    def block_disturb_probability(self, raw_ber: float | None = None) -> float:
        """Probability one block suffers at least one raw channel flip.

        This is the receiver-visible event rate of the decoder's correction
        telemetry — the signal the adaptive controller's failure monitor
        feeds on.  Much larger than the block *failure* probability at the
        design points the links operate at, which is what makes drift
        observable within a simulation's packet budget.
        """
        p = self.raw_ber if raw_ber is None else float(raw_ber)
        cached = self._disturb_cache.get(p)
        if cached is None:
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError("raw BER must lie in [0, 1]")
            cached = float(-np.expm1(int(self.code.n) * np.log1p(-p))) if p < 1.0 else 1.0
            self._disturb_cache[p] = cached
        return cached

    @property
    def coded_bits_per_packet(self) -> int:
        """Wire bits occupied by one packet (blocks x n)."""
        return self.blocks_per_packet * int(self.code.n)

    def sample(
        self,
        num_packets: int,
        *,
        raw_ber: float | None = None,
        resolve_rng: np.random.Generator | None = None,
    ) -> TransmissionOutcome:
        """Draw the outcome of transmitting ``num_packets`` packets.

        ``raw_ber`` overrides the channel's raw error probability for this
        attempt (the engine passes the drift-degraded value under a
        time-varying channel).  No extra randomness is consumed for the
        override itself, and an override equal to the design BER reproduces
        the static channel draw for draw — which is what makes a zero-drift
        adaptive run byte-identical to a static one.

        ``resolve_rng`` is the stream the data-dependent draws of a failing
        attempt come from (the engine passes its dedicated resolution
        stream, keeping the primary stream's consumption fixed per attempt);
        the default resolves from the sampler's own generator, preserving
        the historical single-stream behaviour for standalone use.
        """
        if num_packets < 1:
            raise ConfigurationError("an attempt must carry at least one packet")
        return self.outcome_from_uniform(
            self._rng.random(),
            num_packets,
            raw_ber=raw_ber,
            resolve_rng=self._rng if resolve_rng is None else resolve_rng,
        )

    def outcome_from_uniform(
        self,
        uniform: float,
        num_packets: int,
        *,
        raw_ber: float | None = None,
        resolve_rng: np.random.Generator,
    ) -> TransmissionOutcome:
        """Resolve an attempt's outcome from its pre-drawn primary uniform.

        ``uniform`` is the attempt's single primary-stream double (e.g. cut
        out of one epoch-wide draw); the rare failing attempts consume
        further draws from ``resolve_rng`` only.  Calling this per attempt
        in schedule order on a vectorized draw is bit-identical to
        per-attempt :meth:`sample` calls against the same two streams.
        """
        if uniform >= self.attempt_failure_probability(num_packets, raw_ber):
            return TransmissionOutcome(num_packets, 0, 0, 0)
        return self.resolve_failed_attempt(
            num_packets, raw_ber=raw_ber, resolve_rng=resolve_rng
        )

    def resolve_failed_attempt(
        self,
        num_packets: int,
        *,
        raw_ber: float | None = None,
        resolve_rng: np.random.Generator,
    ) -> TransmissionOutcome:
        """Outcome of an attempt *known* to have at least one failed block.

        Samples the failed-block pattern conditioned on the attempt-level
        failure event the primary uniform decided: the first failed block
        index is truncated-geometric (one inverse-CDF uniform), the blocks
        after it fail i.i.d. (one binomial for the count, a uniform subset
        for the positions) — together exactly the joint law of i.i.d.
        per-block Bernoulli failures given at least one.  Every draw comes
        from ``resolve_rng``.
        """
        failure_probability, residual_rate = (
            (self.block_failure_probability, self._residual_rate)
            if raw_ber is None
            else self._params_for(float(raw_ber))
        )
        rng = resolve_rng
        blocks_per_packet = self.blocks_per_packet
        total_blocks = num_packets * blocks_per_packet
        # First failed block (flat, row-major transmission order): smallest
        # j with CDF(j) = (1 - q^(j+1)) / (1 - q^N) >= v.
        v = rng.random()
        if failure_probability >= 1.0:
            first = 0
        else:
            attempt_probability = self.attempt_failure_probability(num_packets, raw_ber)
            first = (
                math.ceil(
                    math.log1p(-v * attempt_probability)
                    / math.log1p(-failure_probability)
                )
                - 1
            )
            if first < 0:
                first = 0
            elif first >= total_blocks:
                first = total_blocks - 1
        remaining_blocks = total_blocks - first - 1
        extra = int(rng.binomial(remaining_blocks, failure_probability)) if remaining_blocks else 0
        if extra:
            offsets = rng.choice(remaining_blocks, size=extra, replace=False)
            flat = np.concatenate(([first], first + 1 + offsets))
        else:
            flat = np.array([first])
        failed_per_packet = np.bincount(flat // blocks_per_packet, minlength=num_packets)
        failed_indices = np.nonzero(failed_per_packet)[0]

        if self.crc_width:
            escaped = rng.random(failed_indices.size) < self.undetected_probability
        else:
            escaped = np.ones(failed_indices.size, dtype=bool)
        delivered_failed = failed_indices[escaped]
        failed_detected = int(failed_indices.size - delivered_failed.size)

        residual = 0
        if delivered_failed.size:
            blocks_in_error = int(failed_per_packet[delivered_failed].sum())
            residual = blocks_in_error
            if residual_rate > 0.0 and self.code.k > 1:
                residual += int(
                    rng.binomial(self.code.k - 1, residual_rate, size=blocks_in_error).sum()
                )
            if self._payload_fraction < 1.0 and residual:
                residual = int(rng.binomial(residual, self._payload_fraction))
        return TransmissionOutcome(
            packets=num_packets,
            failed_detected=failed_detected,
            delivered_with_errors=int(delivered_failed.size),
            residual_bit_errors=int(residual),
        )


class BitExactOutcomeSampler:
    """Round-trip real codewords on the packed substrate.

    Packets are CRC-appended (batch table CRC), framed, packed into
    ``uint64`` words, encoded, corrupted and decoded without ever leaving
    packed storage; the fault model corrupts the whole attempt's block
    matrix in row-major (transmission) order, so burst models span adjacent
    blocks exactly like on the serialised wire.  Residual payload errors
    are popcounts of ``corrected XOR transmitted`` against per-block
    payload-column masks, and the CRC re-check only runs — on the decoded
    bits, exactly like the pre-packing implementation — for packets whose
    protected columns were actually disturbed (clean packets trivially
    pass).  Outcomes are deterministic per seed and *distribution*-identical
    to the pre-packing implementation — not draw-for-draw identical: the
    error mask is drawn before the payload, clean attempts skip the payload
    draw entirely, and independent flips are sampled by exact binomial
    thinning (:meth:`~repro.simulation.faults.IndependentErrorModel.sparse_error_positions`).
    """

    __slots__ = (
        "code", "error_model", "packet_bits", "crc", "crc_width",
        "blocks_per_packet", "_rng", "_payload_masks", "_protected_masks",
    )

    def __init__(
        self,
        code,
        error_model,
        *,
        packet_bits: int,
        crc: CyclicRedundancyCheck | None = None,
        rng: np.random.Generator,
    ):
        self.code = code
        self.error_model = error_model
        self.packet_bits = int(packet_bits)
        self.crc = crc
        self.crc_width = crc.width if crc is not None else 0
        self.blocks_per_packet = _frame_geometry(code, packet_bits, self.crc_width)
        self._rng = rng
        n, k = int(code.n), int(code.k)
        # Per-block masks over the systematic message prefix: which codeword
        # bits of frame block j carry payload (respectively payload+CRC)
        # columns.  Errors beyond them land in zero padding and corrupt
        # nothing.
        def _prefix_masks(limit: int) -> np.ndarray:
            return np.stack(
                [
                    range_mask(n, 0, min(k, max(0, limit - block * k)))
                    for block in range(self.blocks_per_packet)
                ]
            )

        self._payload_masks = _prefix_masks(self.packet_bits)
        self._protected_masks = _prefix_masks(self.packet_bits + self.crc_width)

    @property
    def coded_bits_per_packet(self) -> int:
        """Wire bits occupied by one packet (blocks x n)."""
        return self.blocks_per_packet * int(self.code.n)

    def sample(self, num_packets: int) -> TransmissionOutcome:
        """Transmit ``num_packets`` fresh random packets end to end.

        The error mask of the whole attempt is drawn *first*: when it comes
        back all-zero — the overwhelmingly common case at the raw BERs the
        link designs operate at — the received words provably equal the
        transmitted ones (zero syndrome decodes to the codeword itself and
        the CRC of an untouched packet matches), so every packet is
        delivered clean without materialising a single codeword.  Only
        attempts that actually suffered bit flips round-trip real payloads
        through encode → XOR mask → decode → CRC.
        """
        if num_packets < 1:
            raise ConfigurationError("an attempt must carry at least one packet")
        rng = self._rng
        n, k = int(self.code.n), int(self.code.k)
        blocks_per_packet = self.blocks_per_packet
        total_blocks = num_packets * blocks_per_packet
        error_mask = None
        sparse = getattr(self.error_model, "sparse_error_positions", None)
        if sparse is not None:
            positions = sparse(total_blocks * n)
            if positions.size == 0:
                return TransmissionOutcome(num_packets, 0, 0, 0)
            error_mask = _packed_mask_from_positions(positions, total_blocks, n)
        else:
            mask_source = getattr(self.error_model, "error_mask_packed", None)
            if mask_source is not None:
                error_mask = mask_source(total_blocks, n=n)
                if not error_mask.any():
                    return TransmissionOutcome(num_packets, 0, 0, 0)
        payload = rng.integers(0, 2, size=(num_packets, self.packet_bits), dtype=np.uint8)
        protected_bits = self.packet_bits + self.crc_width
        frame_bits = blocks_per_packet * k
        if protected_bits == frame_bits and self.crc is None:
            # No CRC slot and no padding: the payload *is* the frame.
            frame = payload
        else:
            frame = np.zeros((num_packets, frame_bits), dtype=np.uint8)
            frame[:, : self.packet_bits] = payload
            if self.crc is not None:
                frame[:, self.packet_bits : protected_bits] = self.crc.checksum_batch_bits(
                    payload
                )

        encoded = encode_blocks_packed(self.code, pack_bits(frame.reshape(-1, k)))
        if error_mask is not None:
            corrupted = encoded ^ error_mask
        else:
            # Duck-typed fault models without a packed mask API consume the
            # same stream on the unpacked image.
            corrupted = pack_bits(self.error_model.apply(unpack_bits(encoded, n)))
        decoded = decode_blocks_packed(self.code, corrupted)
        residual_frames = (decoded.corrected_words ^ encoded).reshape(
            num_packets, blocks_per_packet, -1
        )

        if self.crc is not None:
            protected_errors = _mask_popcounts(residual_frames, self._protected_masks)
            ok = protected_errors == 0
            suspects = np.nonzero(~ok)[0]
            payload_errors = np.zeros(num_packets, dtype=np.int64)
            if suspects.size:
                # Re-run the CRC on the decoded bits of the disturbed
                # packets only (clean packets trivially pass); an error
                # pattern whose CRC happens to match the corrupted checksum
                # escapes detection here exactly as it would in hardware.
                payload_errors[suspects] = _mask_popcounts(
                    residual_frames[suspects], self._payload_masks
                )
                rows = decoded.corrected_words.reshape(num_packets, blocks_per_packet, -1)
                words = rows[suspects].reshape(suspects.size * blocks_per_packet, -1)
                received = (
                    unpack_bits(words, n)[:, :k].reshape(suspects.size, frame_bits)
                )
                ok[suspects] = self.crc.verify_batch(received[:, :protected_bits])
        else:
            ok = np.ones(num_packets, dtype=bool)
            payload_errors = _mask_popcounts(residual_frames, self._payload_masks)
        failed_detected = int(np.count_nonzero(~ok))
        delivered_with_errors = int(np.count_nonzero(ok & (payload_errors > 0)))
        residual = int(payload_errors[ok].sum())
        return TransmissionOutcome(
            packets=num_packets,
            failed_detected=failed_detected,
            delivered_with_errors=delivered_with_errors,
            residual_bit_errors=residual,
        )


def packets_for_payload(payload_bits: int, packet_bits: int) -> int:
    """Packets needed to carry a payload (last one zero padded)."""
    if payload_bits < 1:
        raise ConfigurationError("payload must contain at least one bit")
    if packet_bits < 1:
        raise ConfigurationError("packet size must be at least one bit")
    return math.ceil(payload_bits / packet_bits)
