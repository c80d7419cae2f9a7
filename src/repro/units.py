"""Unit helpers and physical constants used throughout :mod:`repro`.

The optical-link literature mixes decibel and linear quantities freely; the
paper quotes waveguide loss in dB/cm, extinction ratio in dB, laser output
power in microwatts and laser electrical power in milliwatts.  Internally the
library works in SI base units (watts, metres, seconds, hertz) and linear
power ratios.  This module provides the conversions plus a few convenience
constants so the rest of the code never embeds magic conversion factors.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = [
    "db_to_linear",
    "ensure_monotonic",
    "linear_to_db",
    "db_loss_to_transmission",
    "transmission_to_db_loss",
    "milli",
    "micro",
    "nano",
    "pico",
    "femto",
    "giga",
    "mega",
    "kilo",
    "to_mw",
    "to_uw",
    "to_pj",
    "q_function",
    "inverse_q_function",
    "PLANCK_CONSTANT",
    "SPEED_OF_LIGHT",
    "ELEMENTARY_CHARGE",
    "BOLTZMANN_CONSTANT",
]

# Physical constants (SI units).
PLANCK_CONSTANT = 6.626_070_15e-34  # J.s
SPEED_OF_LIGHT = 299_792_458.0  # m/s
ELEMENTARY_CHARGE = 1.602_176_634e-19  # C
BOLTZMANN_CONSTANT = 1.380_649e-23  # J/K

# SI prefixes as multiplicative factors.
milli = 1e-3
micro = 1e-6
nano = 1e-9
pico = 1e-12
femto = 1e-15
kilo = 1e3
mega = 1e6
giga = 1e9


def db_to_linear(value_db: float | np.ndarray) -> float | np.ndarray:
    """Convert a power ratio expressed in dB to a linear ratio.

    ``db_to_linear(3.0)`` is approximately ``2.0``; negative dB values map to
    ratios below one.
    """
    return np.power(10.0, np.asarray(value_db, dtype=float) / 10.0) if isinstance(
        value_db, (np.ndarray, list, tuple)
    ) else 10.0 ** (float(value_db) / 10.0)


def linear_to_db(value: float | np.ndarray) -> float | np.ndarray:
    """Convert a linear power ratio to dB.

    Raises :class:`ValueError` for non-positive scalar inputs because a
    non-positive power ratio has no dB representation.
    """
    if isinstance(value, (np.ndarray, list, tuple)):
        arr = np.asarray(value, dtype=float)
        if np.any(arr <= 0):
            raise ValueError("linear power ratios must be strictly positive")
        return 10.0 * np.log10(arr)
    if value <= 0:
        raise ValueError("linear power ratios must be strictly positive")
    return 10.0 * math.log10(float(value))


def db_loss_to_transmission(loss_db: float) -> float:
    """Convert a loss expressed in (positive) dB to a transmission factor.

    A loss of ``3 dB`` corresponds to a transmission of about ``0.5``.  A
    negative loss would be a gain, which passive photonic elements cannot
    provide, so negative values are rejected.
    """
    if loss_db < 0:
        raise ValueError("a passive loss must be non-negative in dB")
    return 10.0 ** (-loss_db / 10.0)


def transmission_to_db_loss(transmission: float) -> float:
    """Convert a transmission factor in (0, 1] to a positive dB loss."""
    if not 0.0 < transmission <= 1.0:
        raise ValueError("transmission must lie in (0, 1]")
    return -10.0 * math.log10(transmission)


def to_mw(power_w: float) -> float:
    """Express a power given in watts in milliwatts."""
    return power_w / milli


def to_uw(power_w: float) -> float:
    """Express a power given in watts in microwatts."""
    return power_w / micro


def to_pj(energy_j: float) -> float:
    """Express an energy given in joules in picojoules."""
    return energy_j / pico


def q_function(x: float | np.ndarray) -> float | np.ndarray:
    """Gaussian tail probability Q(x) = P[N(0,1) > x].

    Used by the OOK receiver model: the raw bit error probability of an
    on-off-keyed link with decision threshold midway between levels is
    ``Q(sqrt(SNR))`` which equals ``0.5 * erfc(sqrt(SNR / 2))`` for the
    amplitude-SNR convention; the paper uses the power-SNR convention
    ``p = 0.5 * erfc(sqrt(SNR))`` which this library follows (see
    :mod:`repro.channel.ber`).
    """
    from ._special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def inverse_q_function(p: float) -> float:
    """Inverse of :func:`q_function` for scalar probabilities in (0, 1)."""
    from ._special import erfcinv

    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly between 0 and 1")
    return math.sqrt(2.0) * float(erfcinv(2.0 * p))


def ensure_monotonic(values: Iterable[float], *, increasing: bool = True) -> bool:
    """Return True if the sequence is monotonic in the requested direction.

    Utility used by sweep generators and tests to validate axis vectors.
    """
    seq = list(values)
    if len(seq) < 2:
        return True
    if increasing:
        return all(b >= a for a, b in zip(seq, seq[1:]))
    return all(b <= a for a, b in zip(seq, seq[1:]))
