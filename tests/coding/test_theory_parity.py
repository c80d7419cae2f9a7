"""Bit-parity pins of the SciPy-free numerics in :mod:`repro.coding.theory`.

The package imports only ``scipy.special``.  The Eq. 2 root search is a
port of ``scipy.optimize.brentq`` and the block-error tail is
``scipy.special.betainc``; both must reproduce the SciPy routines they
replace bit for bit, or every report digest would move.  SciPy's
``optimize`` and ``stats`` are imported here, in the tests only, as the
oracles — the same arrangement as ``tests/netsim/reference_engine.py``.

The long-code tests pin the overflow fix: past ``n`` of about 1030 the
binomial coefficients of the bounded-distance sums exceed the float range,
and those terms are evaluated in log space.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import binom

from repro.coding import available_codes, get_code, theory
from repro.coding.theory import (
    block_error_probability,
    coded_ber_bounded_distance,
    raw_ber_for_target_output_ber,
    undetected_error_probability_upper_bound,
)
from repro.link.design import OpticalLinkDesigner

#: Every distinct ``(n, t)`` of a coded scheme in the registry.
REGISTRY_NT = sorted(
    {
        (get_code(name).n, get_code(name).correctable_errors)
        for name in available_codes()
        if get_code(name).correctable_errors > 0
    }
)


def seeded_targets(n: int, t: int, count: int = 40) -> list[float]:
    """Log-uniform post-decoding targets in 1e-18..1e-2, seeded per ``(n, t)``."""
    rng = np.random.default_rng([n, t])
    return [float(target) for target in 10.0 ** rng.uniform(-18.0, -2.0, count)]


def bracket(n: int, t: int, target: float):
    """The objective and bracket ``_raw_ber_root`` hands to the root search."""

    def objective(p: float) -> float:
        return theory._coded_output_ber(n, t, p) - target

    low, high = target, 0.4
    if objective(low) > 0:
        return None
    while objective(high) < 0 and high < 0.499:
        high = min(0.499, high * 1.2)
    return objective, low, high


def outcome(search, *args, **kwargs):
    """``("root", x)`` or ``(exception type, message)`` of one search."""
    try:
        return "root", search(*args, **kwargs)
    except (ValueError, RuntimeError) as error:
        return type(error), str(error)


class TestBrentqPort:
    @pytest.mark.parametrize("n,t", REGISTRY_NT)
    def test_eq2_roots_match_scipy_bit_for_bit(self, n, t):
        searched = 0
        for target in seeded_targets(n, t):
            problem = bracket(n, t, target)
            if problem is None:
                continue
            objective, low, high = problem
            expected = brentq(objective, low, high, xtol=1e-18, rtol=1e-12)
            assert theory._brentq(objective, low, high, xtol=1e-18, rtol=1e-12) == expected
            searched += 1
        assert searched > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_generic_brackets_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            centre = float(rng.uniform(-5.0, 5.0))
            degree = int(rng.integers(1, 6))
            low = centre - float(rng.uniform(0.01, 10.0))
            high = centre + float(rng.uniform(0.01, 10.0))

            def f(x, centre=centre, degree=degree):
                return (x - centre) ** degree + 0.1 * math.sin(x)

            assert outcome(theory._brentq, f, low, high) == outcome(brentq, f, low, high)

    def test_exact_zero_at_an_end_is_returned(self):
        assert theory._brentq(lambda x: x - 1.0, 1, 3) == brentq(lambda x: x - 1.0, 1, 3) == 1.0
        assert theory._brentq(lambda x: x - 3.0, 1, 3) == brentq(lambda x: x - 3.0, 1, 3) == 3.0

    @pytest.mark.parametrize(
        "f,a,b,kwargs,error",
        [
            (lambda x: x - 1.0, 2.0, 3.0, {}, ValueError),  # same-sign bracket
            (lambda x: float("nan"), 0, 1, {}, ValueError),  # NaN from f
            (lambda x: float("nan") if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, {}, ValueError),
            (lambda x: x - 0.5, 0.0, 1.0, {"xtol": 0.0}, ValueError),
            (lambda x: x - 0.5, 0.0, 1.0, {"xtol": -1.0}, ValueError),
            (lambda x: x - 0.5, 0.0, 1.0, {"rtol": 1e-20}, ValueError),
            (lambda x: x ** 3 - 0.2, 0.0, 1.0, {"maxiter": 2}, RuntimeError),
        ],
        ids=["same-sign", "nan", "nan-mid-search", "xtol-zero", "xtol-negative",
             "rtol-small", "no-convergence"],
    )
    def test_error_paths_match_scipy(self, f, a, b, kwargs, error):
        ours = outcome(theory._brentq, f, a, b, **kwargs)
        assert ours[0] is error
        assert ours == outcome(brentq, f, a, b, **kwargs)


class TestBlockErrorTail:
    PROBABILITIES = (0.0, 1.0, 1e-300, 1e-15, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.01, 0.1, 0.3,
                     0.5, 0.9, 0.999)

    @staticmethod
    def scipy_tail(p: float, n: int, t: int) -> float:
        """``block_error_probability`` as written on ``scipy.stats.binom.sf``."""
        if p == 0.0:
            return 0.0
        return float(min(1.0, max(0.0, binom.sf(min(t, n), n, p))))

    @pytest.mark.parametrize("t", range(7))
    def test_matches_binom_sf_bit_for_bit(self, t):
        rng = np.random.default_rng(t)
        seeded = [float(p) for p in 10.0 ** rng.uniform(-15.0, 0.0, 4)]
        for n in range(1, 301):
            for p in self.PROBABILITIES + tuple(seeded):
                assert block_error_probability(p, n, t) == self.scipy_tail(p, n, t), (n, t, p)

    def test_correcting_every_bit_never_fails(self):
        for n in (1, 2, 7, 64):
            for t in (n, n + 1, n + 5):
                assert block_error_probability(0.3, n, t) == 0.0
                assert block_error_probability(1.0, n, t) == 0.0


def exact_weighted_tail(p: float, n: int, start: int, extra_weight: int | None) -> float:
    """``sum_{i>=start} w_i C(n,i) p^i (1-p)^(n-i)`` in exact integer arithmetic.

    ``w_i = min(i + extra_weight, n) / n`` (the bounded-distance bit error
    weight), or 1 when ``extra_weight`` is ``None``.  ``p`` is a binary
    fraction ``m / d``, so the sum is one big integer over ``d**n``.
    """
    m, d = p.as_integer_ratio()
    q = d - m
    q_powers = [1]
    for _ in range(n):
        q_powers.append(q_powers[-1] * q)
    total, m_power = 0, m ** start
    for i in range(start, n + 1):
        weight = 1 if extra_weight is None else min(i + extra_weight, n)
        total += weight * math.comb(n, i) * m_power * q_powers[n - i]
        m_power *= m
    return total / (d ** n * (1 if extra_weight is None else n))


class TestLongCodes:
    """``n`` past the float range of ``C(n, i)``: the ``BCH(10,2)`` family."""

    @staticmethod
    def direct_sum(p: float, n: int, t: int) -> float:
        """The bounded-distance sum term by term, in the historical operation order."""
        total = 0.0
        for i in range(t + 1, n + 1):
            total += min(i + t, n) * math.comb(n, i) * (p ** i) * ((1.0 - p) ** (n - i))
        return float(total / n)

    @pytest.mark.parametrize("n,t", [(63, 2), (255, 3), (511, 2), (1000, 2)])
    def test_sums_that_fit_a_float_are_unchanged(self, n, t):
        for p in (1e-12, 1e-6, 1e-3, 0.05, 0.3):
            assert coded_ber_bounded_distance(p, n, t) == self.direct_sum(p, n, t)
            direct = 0.0
            for i in range(2 * t + 1, n + 1):
                direct += math.comb(n, i) * (p ** i) * ((1.0 - p) ** (n - i))
            assert undetected_error_probability_upper_bound(p, n, 2 * t + 1) == min(1.0, direct)

    def test_sums_past_the_float_range_are_accurate(self):
        p = 2.2584039101001835e-06  # the BCH(1023,1003) root at a 1e-11 target
        with pytest.raises(OverflowError):
            self.direct_sum(p, 1023, 2)
        exact = exact_weighted_tail(p, 1023, 3, extra_weight=2)
        assert coded_ber_bounded_distance(p, 1023, 2) == pytest.approx(exact, rel=1e-13)
        exact = exact_weighted_tail(p, 1023, 5, extra_weight=None)
        assert undetected_error_probability_upper_bound(p, 1023, 5) == pytest.approx(
            exact, rel=1e-13
        )

    def test_certain_errors_on_a_long_code(self):
        assert coded_ber_bounded_distance(1.0, 1100, 2) == 1.0
        assert undetected_error_probability_upper_bound(1.0, 1100, 5) == 1.0

    def test_bch_10_2_design_point(self):
        code = get_code("BCH(10,2)")
        assert (code.n, code.correctable_errors) == (1023, 2)
        point = OpticalLinkDesigner().design_point(code, 1e-11)
        assert point.feasible
        assert 1e-7 < point.raw_channel_ber < 1e-5
        assert point.raw_channel_ber == raw_ber_for_target_output_ber(code, 1e-11)
        assert theory._coded_output_ber(1023, 2, point.raw_channel_ber) == pytest.approx(
            1e-11, rel=1e-9
        )
