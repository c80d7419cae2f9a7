"""Pins of the process-wide memos behind the link design chain.

The worst-case crosstalk ratio is memoized per crosstalk geometry and the
Eq. 2 root search per ``(n, t, target)``.  These tests check that both memos
return bit-for-bit the values of the unmemoized computations, that no
geometry is ever served another geometry's entry, and that a cold design
solve does the expected amount of work: one root search, and nothing at all
once another designer in the process has solved the same point.
"""

from __future__ import annotations

import pytest
from scipy.optimize import brentq

from repro.channel.ber import snr_from_ber
from repro.coding import available_codes, get_code, theory
from repro.coding.hamming import HammingCode
from repro.coding.theory import output_ber, raw_ber_for_target_output_ber
from repro.config import DEFAULT_CONFIG
from repro.interconnect.mwsr import MWSRChannel
from repro.link.design import OpticalLinkDesigner
from repro.link.power_budget import LinkPowerBudget
from repro.manager.manager import derated_target_ber
from repro.manager.policies import margin_levels
from repro.obs import metrics as obs_metrics
from repro.photonics import crosstalk
from repro.photonics.crosstalk import CrosstalkModel, worst_case_crosstalk_ratio
from repro.photonics.microring import MicroringResonator
from repro.photonics.wdm import WDMGrid

GEOMETRIES = {
    "default": DEFAULT_CONFIG,
    "8ch": DEFAULT_CONFIG.with_overrides(num_wavelengths=8),
    "32ch": DEFAULT_CONFIG.with_overrides(num_wavelengths=32),
    "0.4nm": DEFAULT_CONFIG.with_overrides(channel_spacing_m=0.4e-9),
    "q12k": DEFAULT_CONFIG.with_overrides(ring_quality_factor=12000.0),
}

BASE_TARGETS = (1e-3, 1e-6, 1e-9, 1e-11, 1e-12, 1e-15)
MARGINS = margin_levels(16.0) + margin_levels(10.0, ratio=3.0)[1:]


def reference_worst_case_ratio(config) -> float:
    """The crosstalk scan as written before the memo: over the wavelength tuple."""
    model = CrosstalkModel.from_config(config)
    wavelengths = model.grid.wavelengths_m
    ratios = []
    for victim, victim_wavelength in enumerate(wavelengths):
        ring = model.drop_ring.detuned_copy(victim_wavelength)
        own = ring.drop_transmission(victim_wavelength)
        total = 0.0
        for other, other_wavelength in enumerate(wavelengths):
            if other != victim:
                total += float(ring.drop_transmission(other_wavelength))
        ratios.append(total / float(own))
    return max(ratios)


def reference_raw_ber(code, target_ber: float) -> float:
    """Uncached inversion of Eq. 2: a direct ``brentq`` on ``output_ber``."""
    if int(getattr(code, "correctable_errors", 0)) == 0:
        return float(target_ber)

    def objective(p: float) -> float:
        return output_ber(code, p) - target_ber

    low, high = target_ber, 0.4
    if objective(low) > 0:
        return float(target_ber)
    while objective(high) < 0 and high < 0.499:
        high = min(0.499, high * 1.2)
    return float(brentq(objective, low, high, xtol=1e-18, rtol=1e-12))


def target_grid(code) -> list[float]:
    """Base targets plus every drift-margin derating the adaptive ladder designs for."""
    return sorted(
        {derated_target_ber(code, target, margin) for target in BASE_TARGETS for margin in MARGINS}
    )


@pytest.fixture
def cold_memos():
    """Empty both process-wide memos so the test sees cold solves."""
    crosstalk._memoized_worst_case_ratio.cache_clear()
    theory._raw_ber_root.cache_clear()
    yield
    crosstalk._memoized_worst_case_ratio.cache_clear()
    theory._raw_ber_root.cache_clear()


class TestCrosstalkMemoExactness:
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_memo_matches_the_scalar_scan_bit_for_bit(self, geometry, cold_memos):
        config = GEOMETRIES[geometry]
        scalar = CrosstalkModel.from_config(config).worst_case_ratio()
        assert scalar == reference_worst_case_ratio(config)
        assert worst_case_crosstalk_ratio(config) == scalar
        assert LinkPowerBudget(config=config).crosstalk_ratio == scalar
        assert MWSRChannel(reader=0, config=config).crosstalk_ratio == scalar

    def test_no_geometry_is_served_another_geometrys_entry(self, cold_memos):
        references = {name: reference_worst_case_ratio(cfg) for name, cfg in GEOMETRIES.items()}
        assert len(set(references.values())) == len(references)
        # Fill the memo in one order, read it back in the other.
        for name in sorted(GEOMETRIES):
            assert worst_case_crosstalk_ratio(GEOMETRIES[name]) == references[name]
        for name in sorted(GEOMETRIES, reverse=True):
            assert worst_case_crosstalk_ratio(GEOMETRIES[name]) == references[name]
        assert crosstalk._memoized_worst_case_ratio.cache_info().currsize == len(GEOMETRIES)

    def test_configs_differing_outside_the_geometry_share_one_entry(self, cold_memos):
        worst_case_crosstalk_ratio(DEFAULT_CONFIG)
        worst_case_crosstalk_ratio(DEFAULT_CONFIG.with_overrides(num_onis=4))
        assert crosstalk._memoized_worst_case_ratio.cache_info().currsize == 1

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_constant_time_wavelength_equals_the_tuple(self, geometry):
        grid = WDMGrid.from_config(GEOMETRIES[geometry])
        assert tuple(grid.wavelength(i) for i in range(grid.num_channels)) == grid.wavelengths_m

    def test_crosstalk_model_builds_its_ring_with_the_shared_builder(self):
        model = CrosstalkModel.from_config(DEFAULT_CONFIG)
        assert model.drop_ring == MicroringResonator.from_config(DEFAULT_CONFIG)


class TestRootMemoExactness:
    @pytest.mark.parametrize("name", available_codes())
    def test_memo_matches_a_direct_brentq_bit_for_bit(self, name, cold_memos):
        code = get_code(name)
        for target in target_grid(code):
            expected = reference_raw_ber(code, target)
            assert raw_ber_for_target_output_ber(code, target) == expected  # cold
            assert raw_ber_for_target_output_ber(code, target) == expected  # memo hit

    @pytest.mark.parametrize("geometry", ["default", "8ch", "32ch"])
    def test_design_points_use_exact_roots_and_crosstalk(self, geometry, cold_memos):
        config = GEOMETRIES[geometry]
        designer = OpticalLinkDesigner(config=config)
        ratio = reference_worst_case_ratio(config)
        for name in available_codes():
            code = get_code(name)
            for target in target_grid(code):
                point = designer.design_point(code, target)
                raw = reference_raw_ber(code, target)
                assert point.raw_channel_ber == raw
                assert point.required_snr == snr_from_ber(raw)
                assert point.crosstalk_power_w == point.signal_power_w * ratio

    def test_codes_sharing_n_and_t_share_a_root(self, cold_memos):
        first, second = get_code("H(7,4)"), HammingCode(3)
        assert first is not second
        raw_ber_for_target_output_ber(first, 1e-9)
        raw_ber_for_target_output_ber(second, 1e-9)
        info = theory._raw_ber_root.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_root_memo_is_bounded(self):
        assert theory._raw_ber_root.cache_info().maxsize == theory.RAW_BER_ROOT_CACHE_SIZE


class TestDesignChainWorkCount:
    @pytest.fixture
    def counters(self, monkeypatch, cold_memos):
        counts = {"root_searches": 0, "crosstalk_scans": 0}
        original_brentq = theory._brentq
        original_scan = CrosstalkModel.worst_case_ratio

        def counting_brentq(*args, **kwargs):
            counts["root_searches"] += 1
            return original_brentq(*args, **kwargs)

        def counting_scan(model):
            counts["crosstalk_scans"] += 1
            return original_scan(model)

        monkeypatch.setattr(theory, "_brentq", counting_brentq)
        monkeypatch.setattr(CrosstalkModel, "worst_case_ratio", counting_scan)
        return counts

    def test_cold_solve_runs_one_root_search_and_one_scan(self, counters):
        code = get_code("H(71,64)")
        OpticalLinkDesigner()._solve_design_point(code, 1e-11)
        assert counters == {"root_searches": 1, "crosstalk_scans": 1}
        # One lookup, not one search plus memo hits for the SNR.
        info = theory._raw_ber_root.cache_info()
        assert (info.misses, info.hits) == (1, 0)

    def test_second_designer_reuses_the_process_memos(self, counters):
        code = get_code("H(71,64)")
        OpticalLinkDesigner().design_point(code, 1e-11)
        counters.update(root_searches=0, crosstalk_scans=0)
        with obs_metrics.collecting() as registry:
            point = OpticalLinkDesigner().design_point(code, 1e-11)
        assert point.feasible
        assert counters == {"root_searches": 0, "crosstalk_scans": 0}
        assert registry.snapshot()["counters"]["link.design_point.cache_misses"] == 1
