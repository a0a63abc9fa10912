"""Strength-fitting tests: recovery, uncertainty, bifurcation curve."""

import json

import numpy as np
import pytest
from reference_expm import expm

from ptdilate.cli import _write_matrix, main
from ptdilate.fitkit import fit_r, sse
from ptdilate.ptmodel import analytic_p0, pt_hamiltonian

T_SAMPLES = np.arange(0.0, 8.0001, 0.1)

NOMINAL_R = [0.1 * k for k in range(10)] + [1.0 + 0.1 * k for k in range(6)]


def clean_samples(r, t=T_SAMPLES):
    return np.column_stack([t, analytic_p0(r, t)])


class TestRecovery:
    def test_table_of_sixteen_nominal_values(self):
        for r in NOMINAL_R:
            res = fit_r(clean_samples(r))
            assert abs(res.r_exp - r) <= 1e-3, f"r={r} -> {res.r_exp}"

    def test_fractional_strength_value(self):
        # The experimentally reported strength for the nominal 0.6 setting.
        res = fit_r(clean_samples(0.616))
        assert res.r_exp == pytest.approx(0.616, abs=1e-3)

    def test_hermitian_data_fits_to_zero(self):
        res = fit_r(clean_samples(0.0))
        assert res.r_exp <= 1e-3

    def test_restricted_range_respected(self):
        res = fit_r(clean_samples(0.6), r_range=(0.0, 0.5))
        assert res.r_exp <= 0.5

    def test_sse_at_fit_beats_scanned_grid(self):
        samples = clean_samples(0.737)
        res = fit_r(samples)
        t, p0 = samples[:, 0], samples[:, 1]
        for r in np.linspace(0.0, 2.0, 401):
            assert res.sse <= sse(r, t, p0) + 1e-15

    def test_noisy_fit_consistent_with_truth(self):
        rng = np.random.default_rng(55)
        t = T_SAMPLES
        p0 = analytic_p0(1.0, t) + rng.normal(scale=0.01, size=t.shape)
        res = fit_r(np.column_stack([t, np.clip(p0, 0.0, 1.0)]))
        assert abs(res.r_exp - 1.0) < 3.0 * res.stderr + 1e-3
        # Near the transition the model curvature is steep, so the
        # curvature-based uncertainty is small but nonzero.
        assert 1e-4 < res.stderr < 1e-1


class TestValidation:
    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            fit_r([(0.0, 1.0), (0.1, 0.99)])

    def test_range_must_be_inside_zero_two(self):
        with pytest.raises(ValueError):
            fit_r(clean_samples(0.5), r_range=(0.0, 2.5))

    def test_rejects_non_finite_samples(self):
        bad = clean_samples(0.5)
        bad[3, 1] = np.nan
        with pytest.raises(ValueError):
            fit_r(bad)

    def test_degenerate_curvature_flagged(self):
        # Samples at t = 0 only carry no strength information: the SSE is
        # identically zero and the curvature vanishes.
        res = fit_r([(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)])
        assert res.degenerate
        assert res.stderr == np.inf

    @pytest.mark.parametrize(
        "r, r_range", [(2.5, (0.0, 2.0)), (1.5, (0.0, 1.2)), (0.0, (0.2, 2.0))]
    )
    def test_minimum_pinned_to_range_edge_flagged(self, r, r_range):
        # The true strength lies outside the scanned range, so the fit
        # sits on its edge and its curvature error would be meaningless.
        res = fit_r(clean_samples(r), r_range=r_range)
        assert res.degenerate
        assert res.stderr == np.inf

    def test_narrowed_range_missing_the_best_fit_flagged(self):
        # Truth 0.3 lies below r_range = [0.5, 2]: the scan there settles
        # on an interior local minimum near 0.874 with a small curvature
        # error, while the [0, 2] scan finds 0.3 outside the range.
        res = fit_r(clean_samples(0.3), r_range=(0.5, 2.0))
        assert res.degenerate
        assert res.stderr == np.inf

    def test_narrowed_range_holding_the_best_fit_keeps_finite_stderr(self):
        res = fit_r(clean_samples(0.8), r_range=(0.5, 2.0))
        assert res.r_exp == pytest.approx(0.8, abs=1e-6)
        assert not res.degenerate
        assert np.isfinite(res.stderr)

    @pytest.mark.parametrize("r_range", [(0.2, 2.0), (0.0, 1.6), "around"])
    @pytest.mark.parametrize("r", [0.3, 0.61, 0.8, 0.95, 1.0, 1.2, 1.47])
    def test_narrowing_around_the_best_fit_changes_nothing(self, r, r_range):
        # A narrowed range is a window on the one [0, 2] scan: every range
        # that holds the best fit returns the full-range fit bit for bit.
        rng = np.random.default_rng(3)
        p0 = analytic_p0(r, T_SAMPLES) + rng.normal(scale=0.01, size=T_SAMPLES.shape)
        samples = np.column_stack([T_SAMPLES, np.clip(p0, 0.0, 1.0)])
        if r_range == "around":
            r_range = (r - 0.1, r + 0.1)
        full = fit_r(samples)
        narrowed = fit_r(samples, r_range=r_range)
        assert r_range[0] < full.r_exp < r_range[1]
        assert (narrowed.r_exp, narrowed.stderr) == (full.r_exp, full.stderr)

    @pytest.mark.parametrize(
        "r, r_range", [(0.6, (0.2345, 0.5)), (0.3, (0.3005, 0.9)), (0.8, (0.7995, 0.8005))]
    )
    def test_off_lattice_bounds_hold_the_fit(self, r, r_range):
        # The best fit lies outside, or on the edge of, the grid points in
        # each range: the fit stays inside it and is flagged.
        res = fit_r(clean_samples(r), r_range=r_range)
        assert r_range[0] <= res.r_exp <= r_range[1]
        assert res.degenerate

    @pytest.mark.parametrize(
        "samples, r_range",
        [
            (clean_samples(0.9), (1.1, 2.0)),  # lower edge above r = 0
            (clean_samples(2.5), (0.0, 2.0)),  # upper edge
            (clean_samples(0.3), (0.5, 2.0)),  # narrowed range misses the best fit
            ([(0.0, 1.0)] * 3, (0.0, 2.0)),  # no curvature
            (clean_samples(0.6), (0.0, 2.0)),  # not degenerate
        ],
        ids=["lower-edge", "upper-edge", "missed-best", "flat", "interior"],
    )
    def test_degenerate_is_a_python_bool(self, samples, r_range):
        # The flag goes to JSON as is: a numpy bool is not serializable.
        res = fit_r(samples, r_range=r_range)
        assert type(res.degenerate) is bool
        assert json.loads(json.dumps(res.degenerate)) is res.degenerate

    def test_range_holding_no_scan_point_rejected(self):
        with pytest.raises(ValueError, match="r_range"):
            fit_r(clean_samples(0.5), r_range=(0.5001, 0.5009))

    def test_zero_strength_keeps_finite_stderr(self):
        # r = 0 with lo = 0 is the physical edge r >= 0, not a pinned fit.
        res = fit_r(clean_samples(0.0))
        assert not res.degenerate
        assert np.isfinite(res.stderr)


class TestSignConvention:
    def test_negated_strength_is_distinguishable(self):
        # The population curve of the sign-flipped generator equals the
        # time-reversed curve, not the original: P0(-r, t) = P0(r, -t).
        # Fitting such data over r >= 0 therefore lands away from |r|,
        # which is why strengths are restricted to r >= 0 throughout.
        r = 0.6
        t = T_SAMPLES
        psi0 = np.array([1.0, 0.0], dtype=complex)
        h_neg = np.array([[-1j * r, 1.0], [1.0, 1j * r]])
        p0 = np.empty_like(t)
        for k, tk in enumerate(t):
            psi = expm(-1j * tk * h_neg) @ psi0
            p0[k] = np.abs(psi[0]) ** 2 / np.sum(np.abs(psi) ** 2)
        res = fit_r(np.column_stack([t, p0]))
        assert abs(res.r_exp - r) > 0.05
        # Confirm the generated data really is the time-reversed curve.
        assert np.max(np.abs(p0 - analytic_p0(r, -t))) < 1e-10


class TestEigenCurve:
    def test_unbroken_row(self):
        res = fit_r(clean_samples(0.8))
        assert res.e_plus == pytest.approx(0.6, abs=1e-3)
        assert res.e_plus.imag == 0.0

    def test_coalescence_row(self):
        res = fit_r(clean_samples(1.0))
        assert abs(res.e_plus) < 2e-3 and abs(res.e_minus) < 2e-3

    def test_broken_row_from_reported_strength(self):
        res = fit_r(clean_samples(1.509))
        assert res.e_plus.real == pytest.approx(0.0)
        assert res.e_plus.imag == pytest.approx(1.1305, abs=1e-3)

    def fit_files(self, tmp_path, r_values):
        """Run ``fit`` on a clean sweep matrix of ``r_values``; return the
        lines of fits.csv and eigencurve.csv below their metadata line."""
        mat = [analytic_p0(r, T_SAMPLES) for r in r_values]
        _write_matrix(str(tmp_path / "sweep.csv"), {}, r_values, T_SAMPLES, mat)
        assert main(["fit", "--input", str(tmp_path / "sweep.csv"), "--outdir", str(tmp_path)]) == 0
        return [
            (tmp_path / name).read_text().splitlines()[1:]
            for name in ("fits.csv", "eigencurve.csv")
        ]

    def test_table_layout(self, tmp_path):
        _, lines = self.fit_files(tmp_path, [0.5, 1.5])
        assert lines[0] == "r_nominal,reE_plus,imE_plus,reE_minus,imE_minus"
        table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert table.shape == (2, 5)
        assert table[0, 2] == 0.0  # Im E+ vanishes below the transition
        assert table[1, 1] == 0.0  # Re E+ vanishes above it

    def test_csv_serialization(self, tmp_path):
        lines, _ = self.fit_files(tmp_path, [0.5])
        assert lines[0] == "r_nominal,r_exp,stderr,reE_plus,imE_plus"
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == pytest.approx(0.5, abs=1e-5)
