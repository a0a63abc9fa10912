"""Closed-form PT-family tests, cross-checked by brute-force integration."""

import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_expm import expm

from ptdilate.ptmodel import analytic_p0, pt_eigenvalues, pt_hamiltonian


def brute_force_p0(r, t):
    """|0> population via the series exponential of the non-normal generator."""
    psi = expm(-1j * t * pt_hamiltonian(r)) @ np.array([1.0, 0.0], dtype=complex)
    return float(np.abs(psi[0]) ** 2 / np.sum(np.abs(psi) ** 2))


def p0_mp(r: float, t: float, dps: int = 60) -> float:
    """|0> population at time t by the matrix exponential of H(r) in
    ``dps``-digit arithmetic: no regime split and no closed form, so it is
    exact to double precision through the exceptional point."""
    with mp.workdps(dps):
        h = mp.matrix([[1j * mp.mpf(r), 1], [1, -1j * mp.mpf(r)]])
        psi = mp.expm(-1j * mp.mpf(t) * h) * mp.matrix([1, 0])
        p0, p1 = abs(psi[0]) ** 2, abs(psi[1]) ** 2
        return float(p0 / (p0 + p1))


class TestParams:
    def test_rejects_negative_r(self):
        for f in (pt_hamiltonian, pt_eigenvalues):
            with pytest.raises(ValueError):
                f(-0.1)

    def test_rejects_nan_r(self):
        for f in (pt_hamiltonian, pt_eigenvalues):
            with pytest.raises(ValueError):
                f(np.nan)

    def test_hamiltonian_entries(self):
        h = pt_hamiltonian(0.6)
        assert h[0, 0] == 0.6j and h[1, 1] == -0.6j
        assert h[0, 1] == 1.0 and h[1, 0] == 1.0

    def test_non_hermitian_above_zero(self):
        h = pt_hamiltonian(0.3)
        assert np.max(np.abs(h - h.conj().T)) == pytest.approx(0.6)


class TestEigenvalues:
    def test_hermitian_point(self):
        assert pt_eigenvalues(0.0) == (1.0, -1.0)

    def test_unbroken_real(self):
        ep, em = pt_eigenvalues(0.6)
        assert ep == pytest.approx(0.8)
        assert em == pytest.approx(-0.8)

    def test_exceptional_point_coalescence(self):
        ep, em = pt_eigenvalues(1.0)
        assert ep == 0.0 and em == 0.0

    def test_broken_imaginary(self):
        ep, em = pt_eigenvalues(1.5)
        assert ep == pytest.approx(1j * np.sqrt(1.25))
        assert em == pytest.approx(-1j * np.sqrt(1.25))

    def test_matches_direct_spectrum(self):
        for r in (0.3, 0.9, 1.2, 1.7):
            key = lambda z: (round(z.real, 9), z.imag)
            direct = sorted(np.linalg.eigvals(pt_hamiltonian(r)), key=key)
            ours = sorted(pt_eigenvalues(r), key=key)
            assert np.allclose(direct, ours, atol=1e-12)


class TestAnalyticP0:
    def test_hermitian_limit_is_cos_squared(self):
        t = np.linspace(0.0, 8.0, 200)
        assert np.max(np.abs(analytic_p0(0.0, t) - np.cos(t) ** 2)) < 1e-14

    def test_exceptional_point_rational_form(self):
        t = np.linspace(0.0, 8.0, 200)
        expected = (1.0 + t) ** 2 / ((1.0 + t) ** 2 + t**2)
        assert np.max(np.abs(analytic_p0(1.0, t) - expected)) < 1e-14

    def test_broken_asymptote(self):
        # Long-time limit (r + s)^2 / ((r + s)^2 + 1) at r = 1.4.
        r = 1.4
        s = np.sqrt(r**2 - 1.0)
        limit = (r + s) ** 2 / ((r + s) ** 2 + 1.0)
        assert limit == pytest.approx(0.84992, abs=2e-5)
        assert analytic_p0(r, 50.0) == pytest.approx(limit, abs=1e-12)

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.95, 1.0, 1.05, 1.4])
    def test_matches_brute_force_exponential(self, r):
        for t in (0.3, 1.1, 2.7):
            assert analytic_p0(r, t) == pytest.approx(brute_force_p0(r, t), abs=1e-12)

    def test_overflow_safe_deep_in_broken_regime(self):
        val = analytic_p0(1.9, 1e4)
        assert np.isfinite(val) and 0.0 < val < 1.0

    def test_initial_value_is_one(self):
        for r in (0.0, 0.6, 1.0, 1.4):
            assert analytic_p0(r, 0.0) == pytest.approx(1.0)

    # |r - 1| log-uniform in [1e-16, 1e-6] on both sides, r = 1 and its two
    # float neighbours, and the whole range r in [0, 3].
    NEAR_EP = st.builds(
        lambda e, sign: 1.0 + sign * 10.0**e, st.floats(-16.0, -6.0), st.sampled_from([-1.0, 1.0])
    )
    AT_EP = st.sampled_from([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(NEAR_EP, AT_EP, st.floats(0.0, 3.0)), st.floats(0.0, 16.0))
    @example(1.0 - 1e-8, 8.0)
    @example(1.0 + 1e-8, 8.0)
    @example(1.0 - 4e-9, 8.0)
    @example(1.0 + 4e-9, 8.0)
    @example(1.0 + 1e-9, 16.0)
    def test_matches_mpmath(self, r, t):
        # One evaluator through the exceptional point: within an ulp or so
        # near it, and within the rounding of the trig argument k t elsewhere.
        bound = 1e-15 if abs(r - 1.0) <= 1e-6 else 1e-14
        assert abs(analytic_p0(r, t) - p0_mp(r, t)) <= bound, (r, t)


class TestModelTable:
    """analytic_p0 over an array of strengths: the table the r-fit scans."""

    # Both regimes and the edge between them: r = 1 and an ulp either side.
    STRENGTHS = [
        0.0, 0.3, 1.0 - 1e-12, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-12,
        1.4, 2.0,
    ]

    @pytest.mark.parametrize(
        "strengths",
        [STRENGTHS, STRENGTHS[:3], STRENGTHS[3:6], STRENGTHS[6:]],
        ids=["mixed", "unbroken", "regime_edge", "broken"],
    )
    def test_rows_equal_scalar_calls_bitwise(self, strengths):
        t = np.linspace(0.0, 8.0, 201)
        table = analytic_p0(np.array(strengths)[:, None], t)
        assert table.shape == (len(strengths), t.size)
        for row, r in zip(table, strengths):
            assert np.array_equal(row, analytic_p0(float(r), t)), r

    # The regime edge r = 1, an ulp either side, and 1e-12 either side.
    REGIME_EDGES = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 - 1e-12, 1.0 + 1e-12]

    # Every accepted 0-d strength type; an int strength takes a whole r.
    ZERO_D = {
        "float": float,
        "int": lambda r: int(round(r)),
        "np.float64": np.float64,
        "np.float32": np.float32,
        "0-d array": np.array,
    }

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(0.0, 3.0), st.sampled_from(REGIME_EDGES)), min_size=1, max_size=8
        ),
        st.sampled_from(sorted(ZERO_D)),
        st.one_of(
            st.floats(0.0, 16.0),
            st.lists(st.floats(0.0, 16.0), min_size=1, max_size=12).map(np.array),
        ),
    )
    def test_scalar_calls_equal_table_rows_bitwise(self, strengths, kind, t):
        scalars = [self.ZERO_D[kind](r) for r in strengths]
        rs = np.array([float(r) for r in scalars])
        table = analytic_p0(rs[:, None], t).reshape(rs.size, *np.shape(t))
        for row, r in zip(table, scalars):
            assert np.asarray(analytic_p0(r, t)).tobytes() == row.tobytes(), (kind, r)

    @pytest.mark.parametrize("bad", [-0.1, -1e-300, np.nan])
    def test_rejects_negative_or_nan_strength(self, bad):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            analytic_p0(np.array([0.5, bad, 1.2])[:, None], t)
        for scalar in (bad, np.float64(bad), np.array(bad)):
            with pytest.raises(ValueError, match="r must be >= 0"):
                analytic_p0(scalar, t)

    def test_negative_zero_strength_accepted(self):
        t = np.linspace(0.0, 1.0, 5)
        for r in (-0.0, np.float64(-0.0), np.array(-0.0), np.array([-0.0])):
            assert np.array_equal(analytic_p0(r, t), analytic_p0(0.0, t))


class TestHugeStrength:
    """r^2 overflows past sqrt(float max) ~ 1.34e154: the broken regime's rate
    s = sqrt(r^2 - 1) would be inf, and inf * 0 a NaN P0 at t = 0."""

    def test_largest_finite_square_still_evaluates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert analytic_p0(1e154, [0.0, 1.0]).tolist() == [1.0, 1.0]
            table = analytic_p0(np.array([0.5, 1e154])[:, None], [0.0, 1.0])
            assert table[1].tolist() == [1.0, 1.0]
            ep, em = pt_eigenvalues(1e154)
        assert np.isfinite(ep) and np.isfinite(em) and ep == 1e154j

    @pytest.mark.parametrize("r", [1e155, np.nextafter(np.sqrt(np.finfo(float).max), np.inf)])
    def test_overflowing_square_raises(self, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: analytic_p0(r, [0.0, 1.0]),
                lambda: analytic_p0(np.array([0.5, r]), 1.0),  # masked beside an unbroken r
                lambda: analytic_p0(np.array([2.0, r])[:, None], [0.0, 1.0]),  # all broken
                lambda: pt_eigenvalues(r),
            ):
                with pytest.raises(ValueError, match=re.escape(f"r = {r} is too large")):
                    call()

    def test_hamiltonian_still_accepts_it(self):
        # The dilation names such a strength as too large at t = 0 itself.
        assert pt_hamiltonian(1e200)[0, 0] == 1e200j
