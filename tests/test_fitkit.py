"""Strength-fitting tests: recovery, uncertainty, bifurcation curve."""

import dataclasses
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import reference_fit
from reference_expm import expm

from ptdilate import fitkit
from ptdilate.cli import _write_matrix, main
from ptdilate.fitkit import _model_table, _scan, fit_r, fit_rows, sse
from ptdilate.numkit import TimeGrid
from ptdilate.ptmodel import analytic_p0, pt_hamiltonian
from ptdilate.readout import PLRates, noisy_p0_curve
from ptdilate.simulator import branch_populations, simulate_pt

T_SAMPLES = np.arange(0.0, 8.0001, 0.1)

NOMINAL_R = [0.1 * k for k in range(10)] + [1.0 + 0.1 * k for k in range(6)]


def clean_samples(r, t=T_SAMPLES):
    return np.column_stack([t, analytic_p0(r, t)])


def fit_bits(res):
    """(r_exp, stderr, sse) of a fit as raw bytes, for bit-for-bit checks."""
    return np.array([res.r_exp, res.stderr, res.sse]).tobytes()


def fields(res):
    """Every field of a fit, by repr (exact for floats, and it tells a numpy
    bool from a Python one)."""
    return repr(dataclasses.astuple(res))


def fresh_fit(samples):
    """``fit_r`` from the best grid point scored on a model table built for
    these samples' own times."""
    scores = _scan(*_model_table(samples[:, 0]), samples[None, :, 1])[0]
    return fit_r(samples, _k=int(np.argmin(scores)))


def noisy_readouts(r, grid, stride, repetitions, seeds):
    """(t, P0) samples of the noisy readout at every ``stride``-th node of a
    simulated trajectory, one array per seed, failed reads dropped."""
    pops = branch_populations(simulate_pt(r, grid)[0].states)[::stride]
    ts = grid.times()[::stride]
    for seed in seeds:
        p0 = noisy_p0_curve(pops, PLRates(), repetitions, seed=seed)
        keep = np.isfinite(p0)
        yield np.column_stack([ts[keep], p0[keep]])


# The criterion-9 noise chain: r = 0.6 read at 81 times on [0, 8] with
# 5e5 shots per point.
RECOVER = dict(r=0.6, grid=TimeGrid(0.0, 8.0, 1601), stride=20, repetitions=500_000)


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


class TestEdgeCurvature:
    """The SSE curvature behind ``stderr`` when the fit sits at or near the
    physical edge r = 0, checked against stencils at a smaller step."""

    @staticmethod
    def stderr_from(res, d2):
        return math.sqrt(2.0 * res.sse / (res.n_samples - 2) / d2)

    def test_fit_on_the_edge_uses_a_one_sided_curvature(self):
        # Noisy r = 0 reads often fit to exactly r = 0, where the SSE has a
        # nonzero slope: the symmetric formula with its lower point clipped
        # to the edge measures that slope, not the curvature, and shrinks
        # stderr several-fold.
        grid = TimeGrid(0.0, 8.0, 201)
        seeds = [[3, i] for i in range(40)]
        on_edge = 0
        for samples in noisy_readouts(0.0, grid, 1, 500_000, seeds):
            res = fit_r(samples)
            if res.r_exp != 0.0:
                continue
            on_edge += 1
            t, p0 = samples[:, 0], samples[:, 1]
            h = 2.5e-5
            d2 = (sse(2 * h, t, p0) - 2 * sse(h, t, p0) + sse(0.0, t, p0)) / h**2
            assert res.stderr == pytest.approx(self.stderr_from(res, d2), rel=0.05)
        assert on_edge >= 10

    @pytest.mark.parametrize("r", [2e-5, 5e-5])
    def test_fit_near_the_edge_uses_the_cut_step(self, r):
        # 0 < r_exp < the curvature step: the lower stencil point is cut to
        # r = 0, so the two steps differ.
        rng = np.random.default_rng(0)
        p0 = analytic_p0(r, T_SAMPLES) + rng.normal(scale=1e-5, size=T_SAMPLES.shape)
        samples = np.column_stack([T_SAMPLES, p0])
        res = fit_r(samples)
        assert 0.0 < res.r_exp < 1e-4
        h = res.r_exp / 4
        d2 = (sse(res.r_exp + h, T_SAMPLES, p0) - 2 * res.sse + sse(res.r_exp - h, T_SAMPLES, p0)) / h**2
        assert res.stderr == pytest.approx(self.stderr_from(res, d2), rel=0.05)


@pytest.fixture
def builds(monkeypatch):
    """Start ``fitkit`` with no times seen; record the times of every model
    table it builds."""
    monkeypatch.setattr(fitkit, "_last_t", None)
    monkeypatch.setattr(fitkit, "_kept_table", None)
    calls = []

    def recording(t):
        calls.append(np.array(t))
        return _model_table(t)

    monkeypatch.setattr(fitkit, "_model_table", recording)
    return calls


class TestKeptTable:
    """``fit_r`` without ``_scores`` keeps the model table of times it is
    asked for twice, and serves it for those times and NaN-dropped subsets."""

    def test_one_off_fit_keeps_nothing(self, builds):
        fit_r(clean_samples(0.6))
        assert len(builds) == 1
        assert fitkit._kept_table is None

    def test_second_fit_at_equal_times_keeps_the_table(self, builds):
        fit_r(clean_samples(0.6))
        fit_r(clean_samples(0.9, T_SAMPLES.copy()))
        assert len(builds) == 2
        times, table, sq = fitkit._kept_table
        assert np.array_equal(times, T_SAMPLES)
        want_table, want_sq = _model_table(T_SAMPLES)
        assert np.array_equal(table, want_table) and np.array_equal(sq, want_sq)

    def test_equal_times_and_dropped_subsets_build_nothing(self, builds):
        fit_r(clean_samples(0.6))
        fit_r(clean_samples(0.6))
        for drop in ([], [0], [3, 40], list(range(70, 81))):
            t = np.delete(T_SAMPLES, drop)
            samples = clean_samples(1.2, t) + [0.0, 1e-3]
            res = fit_r(samples)
            assert fit_bits(res) == fit_bits(fresh_fit(samples))
        assert len(builds) == 2

    @pytest.mark.parametrize(
        "times",
        [
            np.concatenate([T_SAMPLES[1::-1], T_SAMPLES[2:]]),  # reordered
            np.insert(T_SAMPLES, 5, T_SAMPLES[5]),  # a time repeated
            T_SAMPLES + 0.05,  # new times
        ],
        ids=["reordered", "duplicated", "new"],
    )
    def test_other_times_build_and_drop_the_table(self, builds, times):
        fit_r(clean_samples(0.6))
        fit_r(clean_samples(0.6))
        res = fit_r(clean_samples(0.7, times))
        assert len(builds) == 3
        assert np.array_equal(builds[-1], times)
        assert fitkit._kept_table is None
        assert res.r_exp == pytest.approx(0.7, abs=1e-6)

    def test_caller_mutating_its_times_cannot_stale_the_table(self, builds):
        # fit_r reads the times as a view of the caller's samples array, so
        # what it remembers must be a copy.
        samples = clean_samples(0.6)
        fit_r(samples)
        samples[:, 0] += 0.05
        samples[:, 1] = analytic_p0(0.6, samples[:, 0])
        fit_r(samples)
        assert len(builds) == 2
        assert fitkit._kept_table is None
        fit_r(samples)  # kept now, for the shifted times
        samples[:, 0] -= 0.05
        samples[:, 1] = analytic_p0(0.8, samples[:, 0])
        res = fit_r(samples)
        assert len(builds) == 4
        assert res.r_exp == pytest.approx(0.8, abs=1e-6)

    def test_threads_never_read_a_table_for_other_times(self, monkeypatch):
        # Four threads fit at two sets of times and their subsets, replacing
        # the remembered times and the kept table under each other: every
        # fit must still equal a fit on a table built for its own times.
        monkeypatch.setattr(fitkit, "_last_t", None)
        monkeypatch.setattr(fitkit, "_kept_table", None)
        cases = []
        for times in (T_SAMPLES, T_SAMPLES + 0.05):
            for drop in ([], [7]):
                samples = clean_samples(0.6, np.delete(times, drop)) + [0.0, 1e-3]
                want = fit_bits(fresh_fit(samples))
                cases.append((samples, want))
        wrong = []

        def worker(k):
            for i in range(40):
                samples, want = cases[(k + i) % len(cases)]
                try:
                    if fit_bits(fit_r(samples)) != want:
                        wrong.append((k, i))
                except (IndexError, ValueError) as exc:  # a table of another width
                    wrong.append((k, i, exc))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not wrong

    def test_recover_replicates_fit_as_with_a_fresh_table(self, monkeypatch):
        # 200 replicates of the criterion-9 noise chain, some with failed
        # reads dropped, read the kept table and fit bit for bit as with a
        # table built for their own times.
        monkeypatch.setattr(fitkit, "_last_t", None)
        monkeypatch.setattr(fitkit, "_kept_table", None)
        n_full = RECOVER["grid"].times()[:: RECOVER["stride"]].size
        dropped = 0
        for samples in noisy_readouts(**RECOVER, seeds=[[1234, i] for i in range(200)]):
            dropped += samples.shape[0] < n_full
            assert fit_bits(fit_r(samples)) == fit_bits(fresh_fit(samples))
        assert dropped > 0
        assert fitkit._kept_table is not None


def _array_path_p0(r, t):
    """``analytic_p0`` with a 0-d strength sent through the per-element masks
    of the array path, as a one-element array."""
    return analytic_p0(np.reshape(r, np.shape(r) or (1,)), t)


class TestScalarStrengthPath:
    """``sse`` calls ``analytic_p0`` with one strength at a time, which picks
    its regime once; every fit equals the fit made through the array path."""

    # Search ranges with bounds on scan grid points and between them.
    RANGES = [
        (0.0, 2.0),
        (float(fitkit._GRID[200]), float(fitkit._GRID[1700])),
        (float(fitkit._GRID[234]) + 5e-4, float(fitkit._GRID[1400]) + 2.5e-4),
        (0.5, 1.25),
    ]

    @staticmethod
    def fit_fields(samples_list):
        """``fields`` of every fit, from a fresh kept-table state."""
        fitkit._last_t = fitkit._kept_table = None
        ranges = TestScalarStrengthPath.RANGES
        return [[fields(fit_r(s, r_range)) for r_range in ranges] for s in samples_list]

    def test_fits_equal_the_array_path_fits(self, builds, monkeypatch):
        grid = TimeGrid(0.0, 8.0, 161)  # read at 81 times
        # Clean samples at all 81 times keep the table; the noisy replicates
        # (5e5 shots, with failed reads dropped at the larger strengths) and
        # further cut copies of them read it, all but the full ones by
        # column subset.
        samples_list = [clean_samples(0.6, grid.times()[::2])]
        for k, r in enumerate((0.3, 0.6, 0.99, 1.0, 1.2, 1.5)):
            for samples in noisy_readouts(r, grid, 2, 500_000, seeds=[[k, 0], [k, 1]]):
                samples_list += [np.delete(samples, drop, axis=0) for drop in ([], [0], [3, 40])]
        assert {s.shape[0] for s in samples_list[1:]} - {81, 80, 79}  # some reads failed
        scalar = self.fit_fields(samples_list)
        assert len(builds) == 2  # streamed, then kept: every other fit read the kept table
        monkeypatch.setattr(fitkit, "analytic_p0", _array_path_p0)
        assert self.fit_fields(samples_list) == scalar


def recover_matrix(seeds_per_r):
    """Criterion-9 noisy readouts (81 times, 5e5 shots) at r in {0, 0.3, ...,
    1.5}, ``seeds_per_r`` seeded rows each: (times, rows), NaN at failed reads."""
    grid, stride = RECOVER["grid"], RECOVER["stride"]
    rows = []
    for k, r in enumerate((0.0, 0.3, 0.6, 0.9, 1.2, 1.5)):
        pops = branch_populations(simulate_pt(r, grid)[0].states)[::stride]
        rows += [
            noisy_p0_curve(pops, PLRates(), RECOVER["repetitions"], seed=[36, k, i])
            for i in range(seeds_per_r)
        ]
    return grid.times()[::stride], np.array(rows)


class TestScanOracle:
    """Every fit equals the fit of ``reference_fit``, which scores the scan
    by the elementwise sums of squared residuals and refines by its own copy
    of Brent's method: the matrix-product scores pick the same grid point,
    and everything else reads the exact SSE."""

    @staticmethod
    def assert_fits_equal_the_oracle(t, rows):
        by_rows = fit_rows(t, rows)
        dropped = 0
        for row, from_rows in zip(rows, by_rows):
            keep = np.isfinite(row)
            dropped += not keep.all()
            samples = np.column_stack([t[keep], row[keep]])
            scores = reference_fit.scan_scores(t[keep], row[keep])
            ranges = TestScalarStrengthPath.RANGES
            want = [fields(reference_fit.fit_r(samples, rng, scores)) for rng in ranges]
            assert [fields(fit_r(samples, rng)) for rng in ranges] == want
            assert fields(from_rows) == want[0]
        return dropped

    def test_recover_rows_fit_as_the_oracle(self, monkeypatch):
        monkeypatch.setattr(fitkit, "_last_t", None)
        monkeypatch.setattr(fitkit, "_kept_table", None)
        t, rows = recover_matrix(34)
        assert self.assert_fits_equal_the_oracle(t, rows) > 0

    @pytest.mark.slow
    def test_recover_rows_fit_as_the_oracle_at_scale(self, monkeypatch):
        monkeypatch.setattr(fitkit, "_last_t", None)
        monkeypatch.setattr(fitkit, "_kept_table", None)
        t, rows = recover_matrix(170)
        assert self.assert_fits_equal_the_oracle(t, rows) > 100

    @pytest.mark.parametrize("k", [0, 600, 1000, 1500])
    def test_fit_at_a_grid_strength_reads_the_exact_sse(self, k, monkeypatch):
        # Noise-free samples at a grid strength: the SSE there is exactly 0
        # while its matrix-product score carries ~1e-14 of rounding.  Brent
        # starts at the grid point on its exact SSE, which nothing beats, and
        # the stderr reads it too; the score in its place would give a wrong
        # (or negative) SSE.
        monkeypatch.setattr(fitkit, "_last_t", None)
        monkeypatch.setattr(fitkit, "_kept_table", None)
        r = float(fitkit._GRID[k])
        samples = clean_samples(r)
        want = reference_fit.fit_r(samples)
        assert (want.r_exp, want.sse, want.degenerate) == (r, 0.0, False)
        fits = [fit_r(samples), fit_r(samples), fit_r(samples)]  # one-off, then kept twice
        fits += fit_rows(T_SAMPLES, samples[None, :, 1])
        assert [fields(res) for res in fits] == [fields(want)] * 4


def brent_rows(seeds_per_r, base, strengths=(0.3, 0.6, 0.9, 1.0, 1.2, 1.4)):
    """Criterion-9 noisy readouts (81 times, 5e5 shots, failed reads dropped),
    ``seeds_per_r`` seeded rows at each strength."""
    grid, stride, reps = RECOVER["grid"], RECOVER["stride"], RECOVER["repetitions"]
    rows = []
    for k, r in enumerate(strengths):
        rows += noisy_readouts(r, grid, stride, reps, seeds=[[base, k, i] for i in range(seeds_per_r)])
    return rows


def brute_force_argmin(samples, r):
    """The least exact ``sse`` on a 1e-6 grid over r +- 1e-4, then on a 1e-8
    grid over +-2e-6 around that, cut at the edge r = 0; the minimum must lie
    inside each grid or on that edge."""
    t, p0 = samples[:, 0], samples[:, 1]
    for step, half in ((1e-6, 100), (1e-8, 200)):
        rs = r + step * np.arange(-half, half + 1)
        rs = rs[rs >= 0.0]
        j = int(np.argmin([sse(float(x), t, p0) for x in rs]))
        assert 0 < j < rs.size - 1 or (j == 0 and rs[0] <= step)
        r = 0.0 if j == 0 and rs[0] <= step else float(rs[j])
    return r


@pytest.fixture(scope="module")
def recover_rows():
    return brent_rows(17, 37)


class TestBrentRefinement:
    """Brent's method from the scan's grid point: few exact SSEs per fit, the
    strength at the brute-force minimum, and golden section's strength."""

    @staticmethod
    def assert_at_the_minimum(rows):
        for samples in rows:
            res = fit_r(samples)
            assert abs(res.r_exp - brute_force_argmin(samples, res.r_exp)) <= 5e-7
            golden = reference_fit.fit_r(samples, refine=reference_fit.golden)
            assert abs(res.r_exp - golden.r_exp) <= fitkit.REFINE_TOL
            assert res.degenerate == golden.degenerate

    @pytest.fixture
    def sse_calls(self, monkeypatch):
        calls = [0]
        real = fitkit.sse

        def counting(r, t, p0):
            calls[0] += 1
            return real(r, t, p0)

        monkeypatch.setattr(fitkit, "sse", counting)
        return calls

    def test_few_sse_calls_per_fit(self, recover_rows, sse_calls):
        # Golden section with its two fallback and two curvature SSEs made
        # 22 calls on every fit; Brent's method makes ~8-9, curvature included.
        assert any(s.shape[0] < 81 for s in recover_rows)  # failed reads dropped
        per_fit = []
        for samples in recover_rows:
            sse_calls[0] = 0
            fit_r(samples)
            per_fit.append(sse_calls[0])
        assert np.mean(per_fit) <= 10 and max(per_fit) <= 12

    def test_fits_sit_at_the_brute_force_minimum(self, recover_rows):
        self.assert_at_the_minimum(recover_rows)

    @pytest.mark.slow
    def test_fits_sit_at_the_brute_force_minimum_at_scale(self):
        self.assert_at_the_minimum(brent_rows(167, 38))

    def test_fits_on_zero_strength_reach_the_edge(self):
        # At r = 0 the scan starts Brent on the bracket's lower end, the edge
        # r = 0, where the noisy minimum often lies.
        rows = brent_rows(20, 39, strengths=(0.0,))
        self.assert_at_the_minimum(rows)
        assert any(fit_r(s).r_exp == 0.0 for s in rows)

    def test_window_of_one_grid_point(self, sse_calls):
        # A window holding the single grid point 0.6: Brent has no bracket to
        # search, so the fit is that point and its exact SSE, pinned.
        samples = clean_samples(0.61)
        res = fit_r(samples, r_range=(0.5995, 0.6004))
        assert sse_calls[0] == 3  # the grid point and two curvature points
        r = float(fitkit._GRID[600])
        assert (res.r_exp, res.sse) == (r, sse(r, samples[:, 0], samples[:, 1]))
        assert res.degenerate

    @pytest.mark.parametrize(
        "r, r_range, k", [(1.5, (0.0, 1.2), 1200), (0.0, (0.2, 2.0), 200), (0.3, (0.45, 1.0), 450)]
    )
    def test_fit_pinned_to_the_window_edge_is_the_edge_point(self, r, r_range, k):
        # The minimum lies beyond the window: Brent starts on the bracket's
        # end at the edge grid point and nothing inside beats it.
        samples = clean_samples(r)
        res = fit_r(samples, r_range=r_range)
        edge = float(fitkit._GRID[k])
        assert (res.r_exp, res.sse) == (edge, sse(edge, samples[:, 0], samples[:, 1]))
        assert res.degenerate and res.stderr == math.inf


class TestTableMemory:
    def test_fit_rows_streams_the_table(self):
        # fit_rows scans blocks of 64 grid rows and keeps no whole table: its
        # peak is one block's analytic_p0 transients, 0.26 of a table here.
        t = np.linspace(0.0, 8.0, 201)
        rows = np.array([analytic_p0(r, t) for r in np.linspace(0.0, 1.5, 16)])
        table = fitkit._GRID.size * t.size * 8  # 3.2 MB
        tracemalloc.start()
        try:
            fit_rows(t, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * table

    def test_kept_state_is_one_table(self, monkeypatch):
        monkeypatch.setattr(fitkit, "_last_t", None)
        monkeypatch.setattr(fitkit, "_kept_table", None)
        samples = clean_samples(0.6)
        table = fitkit._GRID.size * T_SAMPLES.size * 8  # 1.3 MB
        tracemalloc.start()
        try:
            fit_r(samples)
            fit_r(samples)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert fitkit._kept_table is not None
        assert table < kept <= 1.05 * table


@pytest.mark.slow
def test_recover_estimator_bias():
    # The criterion-9 estimator's own bias: the mean of 20,000 replicates
    # (SE ~3.2e-5 at the replicate spread ~0.0045) lies within 1.5e-4 of
    # the truth.
    seeds = [[0, i] for i in range(20_000)]
    fits = np.array([fit_r(s).r_exp for s in noisy_readouts(**RECOVER, seeds=seeds)])
    bias = fits.mean() - RECOVER["r"]
    se = fits.std(ddof=1) / math.sqrt(fits.size)
    print(f"\nrecover bias {bias:+.1e} (SE {se:.1e}), spread {fits.std(ddof=1):.5f}")
    assert abs(bias) <= 1.5e-4


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
