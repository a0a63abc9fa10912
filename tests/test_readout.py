"""Readout-chain tests: calibration, inversion, shot noise, conditionals.

The rate calibration is the test-side reference oracle in
``reference_readout``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_readout import (
    RankDeficient,
    calibrate_rates,
    calibration_design,
    expected_calibration_counts,
)

from ptdilate.readout import (
    PLRates,
    SingularReadout,
    expected_counts,
    inversion_matrix,
    noisy_p0_curve,
    p0_from_populations,
    populations_from_counts,
    simulate_counts,
)

RATES = PLRates(rates=(100.0, 80.0, 60.0, 70.0))


class TestPLRates:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            PLRates(rates=(1.0, -0.1, 1.0, 1.0))

    def test_default_rates_are_well_conditioned(self):
        assert np.linalg.cond(inversion_matrix(PLRates())) < 2e3


class TestCalibration:
    def test_perfect_polarization_reads_off_directly(self):
        # p_e = 1 decouples the system: each sequence reads one level.
        design = calibration_design(1.0)
        assert np.array_equal(design[0], [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(design[1], [0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(design[2], [0.0, 1.0, 0.0, 0.0])
        assert np.array_equal(design[4], [0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("p_e", [0.7, 0.9, 1.0])
    def test_forward_model_roundtrip(self, p_e):
        counts = expected_calibration_counts(RATES, p_e)
        rates, residual = calibrate_rates(counts, p_e)
        assert np.max(np.abs(rates.vector - RATES.vector)) < 1e-9
        assert residual < 1e-9

    def test_rank_deficient_at_half(self):
        with pytest.raises(RankDeficient):
            calibrate_rates(expected_calibration_counts(RATES, 0.7), 0.5)

    def test_noisy_calibration_within_propagated_error(self):
        p_e = 0.9
        reps = 500_000
        rng = np.random.default_rng(101)
        mu = expected_calibration_counts(PLRates(), p_e)
        rates, _ = calibrate_rates(rng.poisson(mu * reps) / reps, p_e)
        # Per-sequence standard error sqrt(mu/reps) propagates through the
        # pseudo-inverse; bound loosely at 5 sigma of the worst column.
        sigma = np.sqrt(np.max(mu) / reps)
        gain = np.linalg.norm(np.linalg.pinv(calibration_design(p_e)), ord=2)
        assert np.max(np.abs(rates.vector - PLRates().vector)) < 5.0 * sigma * gain

    def test_missing_sequence_rejected(self):
        counts = expected_calibration_counts(RATES, 0.9)[:-1]
        with pytest.raises(ValueError):
            calibrate_rates(counts, 0.9)


class TestInversion:
    def test_pure_level_roundtrip(self):
        counts = simulate_counts(np.array([1.0, 0.0, 0.0, 0.0]), RATES, 0)
        assert counts[0] == pytest.approx(RATES.rates[0])
        pops, _ = populations_from_counts(counts, RATES)
        assert np.allclose(pops, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_uniform_population_reads_mean_rate(self):
        counts = simulate_counts(np.full(4, 0.25), RATES, 0)
        assert counts[0] == pytest.approx(np.mean(RATES.vector))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4),
            min_size=1,
            max_size=8,
        )
    )
    def test_random_roundtrip_is_identity(self, rows):
        p = np.array(rows)
        p /= p.sum(axis=1, keepdims=True)
        pops, clamped = populations_from_counts(simulate_counts(p, RATES, 0), RATES)
        assert pops.shape == p.shape and clamped.shape == p.shape[:1]
        assert np.max(np.abs(pops - p)) < 1e-12
        assert not clamped.any()

    def test_singular_rates_rejected(self):
        # Equal rates make the inversion singular: the rates themselves are
        # rejected, before any counts are read.
        with pytest.raises(SingularReadout):
            PLRates(rates=(50.0, 50.0, 50.0, 50.0))

    @pytest.mark.parametrize("bad", [-0.01, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_counts(self, bad):
        counts = simulate_counts(np.full(4, 0.25), RATES, 0)
        counts[1] = bad
        with pytest.raises(ValueError):
            populations_from_counts(counts, RATES)

    def test_noisy_solution_is_clamped_to_simplex(self):
        p = np.array([0.97, 0.01, 0.01, 0.01])
        counts = simulate_counts(p, PLRates(), 2_000, seed=5)
        pops, _ = populations_from_counts(counts, PLRates())
        assert np.min(pops) >= 0.0
        assert pops.sum() == pytest.approx(1.0)


class TestSimulateCounts:
    def test_noise_free_equals_expectation(self):
        p = np.array([0.4, 0.1, 0.3, 0.2])
        counts = simulate_counts(p, RATES, 0)
        assert counts.shape == (3,)
        assert np.allclose(counts, expected_counts(p, RATES))

    def test_fixed_seed_is_deterministic(self):
        p = np.array([0.4, 0.1, 0.3, 0.2])
        a = simulate_counts(p, RATES, 1000, seed=42)
        b = simulate_counts(p, RATES, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_large_repetitions_approach_expectation(self):
        p = np.array([0.4, 0.1, 0.3, 0.2])
        mu = expected_counts(p, RATES)
        counts = simulate_counts(p, RATES, 4_000_000, seed=1)
        rel = np.abs(counts - mu) / mu
        assert np.max(rel) < 5e-3

    def test_rejects_negative_repetitions(self):
        with pytest.raises(ValueError):
            simulate_counts(np.full(4, 0.25), RATES, -1)


class TestConditionalPopulation:
    def test_even_split(self):
        assert p0_from_populations([0.5, 0.0, 0.5, 0.0]) == pytest.approx(0.5)

    def test_pure_bright_level(self):
        assert p0_from_populations([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_empty_branch_gives_nan(self):
        assert np.isnan(p0_from_populations([0.0, 0.7, 0.0, 0.3]))


class TestNoisyCurve:
    def test_noise_free_matches_scalar_chain(self):
        rng = np.random.default_rng(7)
        pops = rng.random((20, 4))
        pops /= pops.sum(axis=1, keepdims=True)
        batch = noisy_p0_curve(pops, RATES, 0)
        for row, val in zip(pops, batch):
            est, _ = populations_from_counts(simulate_counts(row, RATES, 0), RATES)
            assert val == pytest.approx(p0_from_populations(est))

    def test_monte_carlo_mean_is_unbiased(self):
        p = np.array([0.45, 0.05, 0.15, 0.35])
        true = p[0] / (p[0] + p[2])
        reps = 500_000
        vals = np.array(
            [
                noisy_p0_curve(p[None], PLRates(), reps, seed=[11, i])[0]
                for i in range(1000)
            ]
        )
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - true) < 3.0 * se + 5e-4
        # Plausible NV rates at 5e5 shots give error bars of order 0.01.
        assert 1e-3 < vals.std(ddof=1) < 5e-2

    def test_vanished_branch_gives_nan(self):
        # One row with an empty |1>_n branch, one with P0 = 0.25.
        p = np.array([[0.0, 0.6, 0.0, 0.4], [0.1, 0.3, 0.3, 0.3]])
        out = noisy_p0_curve(p, PLRates(), 0)
        assert out.shape == (2,)
        assert np.isnan(out[0])
        assert out[1] == pytest.approx(0.25, abs=1e-12)
