"""Analytic post-decoding error rates of block codes over a BSC.

The paper's link-design procedure is entirely analytic: given a target
post-decoding BER it computes the raw channel error probability ``p`` the
code can tolerate (Eq. 2 for Hamming codes), converts ``p`` to the required
SNR (Eq. 3) and finally to a laser output power (Eq. 4).  This module holds
the first step of that chain:

* :func:`hamming_output_ber` — the paper's Eq. 2,
  ``BER = p - p (1 - p)^{n-1}``.
* :func:`coded_ber_bounded_distance` — the standard bounded-distance
  post-decoding bit-error-rate approximation for a t-error-correcting code,
  used for SECDED/BCH and as a cross-check of Eq. 2.
* :func:`raw_ber_for_target_output_ber` — numeric inversion: the largest raw
  channel BER a code tolerates while meeting a post-decoding target.
* :func:`block_error_probability` — probability a whole block leaves the
  decoder with residual errors (more than ``t`` channel errors), the
  frame-error rate the packet-level network simulator samples from.
* :func:`undetected_error_probability_upper_bound` — detection-oriented
  bound used by the retransmission policies.

All probabilities are per-bit unless stated otherwise.

The only SciPy function used is ``betainc``, taken from
:mod:`repro._special` (the compiled ufunc, without ``scipy.special``'s
package init): the root search is a port of SciPy's ``brentq`` and the
binomial tail is the regularised incomplete beta function, both
bit-identical to the ``scipy.optimize`` / ``scipy.stats`` routines they
replace, which would otherwise dominate the package's import time (see
``docs/ARCHITECTURE.md``, "The import floor").
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from typing import Callable, Protocol

import numpy as np

from .._special import betainc
from ..exceptions import ConfigurationError

__all__ = [
    "code_rate",
    "hamming_output_ber",
    "coded_ber_bounded_distance",
    "output_ber",
    "raw_ber_for_target_output_ber",
    "block_error_probability",
    "undetected_error_probability_upper_bound",
]


#: Entries kept by the process-wide Eq. 2 root memo (one per ``(n, t, target)``).
RAW_BER_ROOT_CACHE_SIZE = 4096

#: Smallest relative tolerance :func:`_brentq` accepts (SciPy's ``4 * eps``).
_BRENTQ_MIN_RTOL = 4 * sys.float_info.epsilon


class _CodeLike(Protocol):
    """Minimal protocol required from code objects by the analytic helpers."""

    n: int
    k: int
    correctable_errors: int
    code_rate: float


def code_rate(n: int, k: int) -> float:
    """Code rate Rc = k / n with validation."""
    if not 0 < k <= n:
        raise ConfigurationError("code rate requires 0 < k <= n")
    return k / n


def hamming_output_ber(raw_ber: float | np.ndarray, block_length: int) -> float | np.ndarray:
    """Post-decoding BER of a Hamming code, paper Eq. 2.

    ``BER = p - p (1 - p)^{n-1}`` where ``p`` is the raw channel bit error
    probability and ``n`` the block length.  The expression is the
    probability that a given bit is in error *and* at least one other bit of
    its block is also in error (in which case single-error correction fails
    to repair it); it tends to ``(n-1) p^2`` for small ``p``.
    """
    p = np.asarray(raw_ber, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ConfigurationError("raw BER must lie in [0, 1]")
    if block_length < 2:
        raise ConfigurationError("block length must be at least 2")
    result = p - p * (1.0 - p) ** (block_length - 1)
    if np.isscalar(raw_ber):
        return float(result)
    return result


def coded_ber_bounded_distance(
    raw_ber: float, block_length: int, correctable_errors: int
) -> float:
    """Post-decoding bit error rate of a bounded-distance decoder.

    Standard approximation for a ``t``-error-correcting (n, k) block code on
    a BSC with crossover probability ``p``:

    ``P_bit ~= (1/n) * sum_{i=t+1}^{n} min(i + t, n) * C(n, i) p^i (1-p)^{n-i}``

    i.e. when ``i > t`` errors occur the decoder may add up to ``t`` extra
    erroneous bits while "correcting" towards the wrong codeword.  For
    ``t = 1`` (Hamming) this closely tracks the paper's Eq. 2; for ``t = 0``
    it degenerates to the raw BER.
    """
    if not 0.0 <= raw_ber <= 1.0:
        raise ConfigurationError("raw BER must lie in [0, 1]")
    if block_length < 1:
        raise ConfigurationError("block length must be positive")
    if correctable_errors < 0:
        raise ConfigurationError("correctable_errors must be non-negative")
    if correctable_errors == 0:
        return float(raw_ber)
    p = float(raw_ber)
    if p == 0.0:
        return 0.0
    n = block_length
    t = correctable_errors
    total = 0.0
    for i, binomial in _binomial_coefficients(n, t + 1):
        weight = min(i + t, n)
        total += _binomial_term(weight * binomial, p, i, n)
    return float(total / n)


def _binomial_coefficients(n: int, start: int):
    """``(i, C(n, i))`` for ``i = start..n``, exact, by the multiplicative recurrence."""
    binomial = math.comb(n, start)
    for i in range(start, n + 1):
        yield i, binomial
        binomial = binomial * (n - i) // (i + 1)


def _binomial_term(coefficient: int, p: float, i: int, n: int) -> float:
    """``coefficient * p**i * (1-p)**(n-i)`` for an exact integer ``coefficient``.

    Evaluated directly, in the historical operation order, whenever the
    coefficient converts to a float.  Past ``n`` of about 1030 it does not
    (``C(n, i)`` exceeds the double range), and only those terms are taken
    through log space; the term itself is a binomial probability times a
    weight of at most ``n``, so it is always representable.
    """
    try:
        return coefficient * (p ** i) * ((1.0 - p) ** (n - i))
    except OverflowError:
        log_q = math.log1p(-p) if p < 1.0 else -math.inf
        return math.exp(math.log(coefficient) + i * math.log(p) + (n - i) * log_q)


def output_ber(code: _CodeLike, raw_ber: float) -> float:
    """Post-decoding BER of ``code`` on a BSC with crossover ``raw_ber``.

    Dispatches to the paper's Hamming expression for single-error-correcting
    codes and to the bounded-distance approximation otherwise; uncoded
    schemes (t = 0) pass the raw BER through unchanged.
    """
    t = int(getattr(code, "correctable_errors", 0))
    if t == 0:
        return float(raw_ber)
    return _coded_output_ber(code.n, t, raw_ber)


def _coded_output_ber(n: int, t: int, raw_ber: float) -> float:
    """:func:`output_ber` of a ``t >= 1`` code: a function of ``(n, t, p)`` only."""
    if t == 1:
        return float(hamming_output_ber(raw_ber, n))
    return coded_ber_bounded_distance(raw_ber, n, t)


def raw_ber_for_target_output_ber(code: _CodeLike, target_ber: float) -> float:
    """Largest raw channel BER for which ``code`` still meets ``target_ber``.

    This is the inversion of Eq. 2 required by the paper's Section IV-D:
    "Calculating the SNR from BER when considering Hamming codes requires to
    invert Equations 3 and 2."  For uncoded transmissions the answer is the
    target itself; for coded transmissions a bracketed root search is used on
    the monotonic (for small p) post-decoding BER expression.
    """
    if not 0.0 < target_ber < 0.5:
        raise ConfigurationError("target BER must lie in (0, 0.5)")
    t = int(getattr(code, "correctable_errors", 0))
    if t == 0:
        return float(target_ber)
    return _raw_ber_root(code.n, t, float(target_ber))


@functools.lru_cache(maxsize=RAW_BER_ROOT_CACHE_SIZE)
def _raw_ber_root(n: int, t: int, target_ber: float) -> float:
    """Memoized root search of :func:`raw_ber_for_target_output_ber`.

    The post-decoding BER depends only on the block length and the number of
    correctable errors, so every code with the same ``(n, t)`` — and every
    designer, shard and drift-margin derating in the process — shares one
    :func:`_brentq` per target.  The cache is bounded because the service accepts
    arbitrary target BERs.
    """

    def objective(p: float) -> float:
        return _coded_output_ber(n, t, p) - target_ber

    # The post-decoding BER is monotonically increasing in p on (0, ~0.5/n);
    # bracket the root between the target itself (coded is never worse than
    # uncoded in this regime) and a generous upper limit.
    low = target_ber
    high = 0.4
    if objective(low) > 0:
        # Extremely high targets where coding gives no benefit.
        return float(target_ber)
    # Shrink the upper bracket until the objective is positive there.
    while objective(high) < 0 and high < 0.499:
        high = min(0.499, high * 1.2)
    root = _brentq(objective, low, high, xtol=1e-18, rtol=1e-12)
    return float(root)


def _brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 2e-12,
    rtol: float = _BRENTQ_MIN_RTOL,
    maxiter: int = 100,
) -> float:
    """Root of ``f`` in ``[a, b]`` by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of SciPy's ``Zeros/brentq.c`` behind the argument
    checks of ``scipy.optimize.brentq``: the same floating-point operations
    in the same order, so every root is bit-identical to SciPy's, and the
    same errors — ``ValueError`` for a bad tolerance, a NaN from ``f`` or a
    bracket whose ends share a sign, ``RuntimeError`` when ``maxiter``
    iterations do not converge.  Kept here so importing the package does not
    import ``scipy.optimize``.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENTQ_MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENTQ_MIN_RTOL:g})")

    def evaluate(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = evaluate(xpre)
    fcur = evaluate(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # Interpolate (secant step).
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # Extrapolate (inverse quadratic step).
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # Good short step.
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = evaluate(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def block_error_probability(
    raw_ber: float, block_length: int, correctable_errors: int
) -> float:
    """Probability a decoded block still carries errors (frame error rate).

    A ``t``-error-correcting bounded-distance decoder repairs every pattern
    of at most ``t`` channel errors, so a block fails exactly when more than
    ``t`` of its ``n`` bits flip:

    ``P_block = 1 - sum_{i=0}^{t} C(n, i) p^i (1-p)^{n-i}``

    For perfect codes (Hamming) this is exact: any heavier pattern is
    "corrected" towards a wrong codeword whose message part necessarily
    differs from the transmitted one.  For ``t = 0`` it degenerates to the
    probability of at least one raw error.  This is the per-block failure
    probability the probabilistic mode of :mod:`repro.netsim` samples packet
    outcomes from.

    Evaluated as the regularised incomplete beta function,
    ``P(X > t) = I_p(t + 1, n - t)``, rather than ``1 - head-sum``, so deep
    operating points (raw BERs of 1e-7 and below, where the tail drops under
    double-precision epsilon of 1) keep their relative accuracy instead of
    cancelling to zero.  ``betainc`` is the Boost ``ibeta`` routine that
    ``scipy.stats.binom.sf`` reaches too, so the two agree bit for bit.
    """
    if not 0.0 <= raw_ber <= 1.0:
        raise ConfigurationError("raw BER must lie in [0, 1]")
    if block_length < 1:
        raise ConfigurationError("block length must be positive")
    if correctable_errors < 0:
        raise ConfigurationError("correctable_errors must be non-negative")
    p = float(raw_ber)
    if p == 0.0:
        return 0.0
    n = block_length
    t = correctable_errors
    if t >= n:
        return 0.0
    return float(min(1.0, max(0.0, betainc(t + 1, n - t, p))))


def undetected_error_probability_upper_bound(
    raw_ber: float, block_length: int, minimum_distance: int
) -> float:
    """Upper bound on the probability a block error escapes detection.

    A linear code detects every error pattern of weight below its minimum
    distance, so the undetected-error probability is at most the probability
    of ``dmin`` or more errors in a block:

    ``P_undetected <= sum_{i=dmin}^{n} C(n, i) p^i (1-p)^{n-i}``

    Used by the retransmission-based policies in :mod:`repro.manager`.
    """
    if not 0.0 <= raw_ber <= 1.0:
        raise ConfigurationError("raw BER must lie in [0, 1]")
    if minimum_distance < 1 or minimum_distance > block_length:
        raise ConfigurationError("minimum distance must lie in [1, n]")
    p = float(raw_ber)
    if p == 0.0:
        return 0.0
    total = 0.0
    for i, binomial in _binomial_coefficients(block_length, minimum_distance):
        total += _binomial_term(binomial, p, i, block_length)
    return float(min(1.0, total))
