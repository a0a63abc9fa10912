"""Dilation-pipeline tests: metric selection, operator identities, routes."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_dilation import eta_series, lambda_gamma
from reference_expm import expm

from ptdilate.dilation import (
    ANCILLA_MINUS,
    ANCILLA_PLUS,
    DilationConfig,
    PositivityLost,
    SingularPropagator,
    ancilla_blocks,
    dilate,
    verify_dilation,
)
from ptdilate.numkit import TimeGrid, block_diag
from ptdilate.ptmodel import EP_WINDOW, analytic_p0, pt_hamiltonian
from ptdilate.simulator import simulate_pt

GRID = TimeGrid(0.0, 4.0, 2001)


def cfg(grid=GRID, margin=0.1):
    return DilationConfig(grid=grid, margin=margin)


def decode_lambda_gamma(hsa):
    """(Lambda, Gamma) of H_sa = Lambda x I + Gamma x sigma_z, system first.

    ``hsa`` holds the ancilla sigma_z blocks B_0 = Lambda + Gamma and
    B_1 = Lambda - Gamma.
    """
    b0, b1 = hsa[:, 0], hsa[:, 1]
    return (b0 + b1) / 2.0, (b0 - b1) / 2.0


class TestAncillaBasis:
    def test_states_are_orthonormal(self):
        assert np.vdot(ANCILLA_MINUS, ANCILLA_MINUS) == pytest.approx(1.0)
        assert np.vdot(ANCILLA_PLUS, ANCILLA_PLUS) == pytest.approx(1.0)
        assert abs(np.vdot(ANCILLA_PLUS, ANCILLA_MINUS)) < 1e-15

    def test_sigma_y_eigenstates(self):
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        assert np.allclose(sy @ ANCILLA_MINUS, -ANCILLA_MINUS)
        assert np.allclose(sy @ ANCILLA_PLUS, ANCILLA_PLUS)


class TestInitialMetric:
    def test_hermitian_case_gives_margin_only(self):
        # For r = 0 the propagator is unitary, mu' = 1, m0 = 1 + margin.
        result = dilate(pt_hamiltonian(0.0), cfg())
        assert result.mu_prime == pytest.approx(1.0, abs=1e-12)
        assert result.m0 == pytest.approx(1.1, abs=1e-12)

    def test_m0_grows_with_horizon(self):
        short = dilate(pt_hamiltonian(1.4), cfg(TimeGrid(0.0, 2.0, 1001))).m0
        long = dilate(pt_hamiltonian(1.4), cfg(TimeGrid(0.0, 4.0, 2001))).m0
        assert long > short > 1.0

    @pytest.mark.parametrize(
        "r,m0_exact",
        [(1.0, 283.7957363700544738817), (1.4, 14444305.94658047072027)],
    )
    def test_m0_matches_high_precision_value(self, r, m0_exact):
        # (1 + margin) / min_t sigma_min(W(t))^2 on the nodes of [0, 8],
        # from a 40-digit mpmath evaluation of W = expm(i t H_s); the
        # minimum sits at t = 8 for both strengths.
        m0 = dilate(pt_hamiltonian(r), cfg(TimeGrid(0.0, 8.0, 801))).m0
        assert m0 == pytest.approx(m0_exact, rel=1e-12)

    def test_metric_starts_scalar(self):
        result = dilate(pt_hamiltonian(0.6), cfg())
        m = result.m_series
        assert np.max(np.abs(m.data[0] - result.m0 * np.eye(2))) < 1e-12

    def test_metric_floor_respects_margin(self):
        m = dilate(pt_hamiltonian(0.6), cfg()).m_series
        eigs = np.linalg.eigvalsh(m.data)
        assert np.min(eigs) >= 1.0 + 0.1 - 1e-9

    def test_positivity_lost_when_m0_too_small(self):
        h = pt_hamiltonian(1.2)
        with pytest.raises(PositivityLost):
            dilate(h, cfg(), m0=1.0001)

    def test_singular_propagator_guard(self):
        # Broken-regime growth e^{2 s T} beyond the condition cap.
        with pytest.raises(SingularPropagator):
            dilate(pt_hamiltonian(2.5), cfg(TimeGrid(0.0, 8.0, 4001)))

    def test_singular_propagator_names_horizon(self):
        # cond(W) grows like e^{2 sqrt(r^2 - 1) t}; at r = 1.4 it first
        # passes 1e14 near t = 16.1, and the message says where.
        with pytest.raises(SingularPropagator) as info:
            dilate(pt_hamiltonian(1.4), cfg(TimeGrid(0.0, 30.0, 3001)))
        t_bad = float(re.search(r"at t = (\S+)", str(info.value)).group(1))
        assert 16.0 <= t_bad <= 16.2


class TestConstantHs:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda t: pt_hamiltonian(0.6),
            np.zeros((2, 3)),
            np.zeros(2),
            np.full((2, 2), np.nan),
            np.array([[np.inf, 1.0], [1.0, 0.0]]),
            np.eye(3),
        ],
        ids=["callable", "non_square", "vector", "nan", "inf", "three_by_three"],
    )
    def test_rejects_all_but_a_square_matrix(self, bad):
        result = dilate(pt_hamiltonian(0.6), cfg(TimeGrid(0.0, 1.0, 11)))
        with pytest.raises((TypeError, ValueError), match="H_s"):
            dilate(bad, cfg())
        with pytest.raises((TypeError, ValueError), match="H_s"):
            verify_dilation(result, bad)


class TestOperatorIdentities:
    @pytest.mark.parametrize("r", [0.0, 0.6, 1.0, 1.4])
    def test_invariant_suite(self, r):
        h = pt_hamiltonian(r)
        result = dilate(h, cfg())
        report = verify_dilation(result, h)
        assert report.hermiticity <= 1e-10
        assert report.block_antisym <= 1e-9
        assert report.min_eig_m_minus_i >= 0.99 * 0.1
        assert report.metric_ode <= 1e-5

    def test_hermitian_input_collapses_to_h_tensor_identity(self):
        # r = 0: eta is constant, Gamma = 0, H_sa = H_s x I.
        h = pt_hamiltonian(0.0)
        result = dilate(h, cfg())
        expected = np.kron(h, np.eye(2))
        assert np.max(np.abs(block_diag(result.hsa_series.data) - expected[None])) < 1e-12

    def test_block_structure_in_ancilla_basis(self):
        # sigma_z maps each sigma_y eigenstate to the other with matrix
        # elements <+-|sigma_z|-+> = +-i, so the diagonal blocks are both
        # Lambda and the off-diagonal blocks are +-i Gamma.
        result = dilate(pt_hamiltonian(0.6), cfg())
        blocks = ancilla_blocks(block_diag(result.hsa_series.data))
        lam, gam = decode_lambda_gamma(result.hsa_series.data)
        assert np.max(np.abs(blocks["--"] - lam)) < 1e-10
        assert np.max(np.abs(blocks["++"] - lam)) < 1e-10
        assert np.max(np.abs(blocks["+-"] - 1j * gam)) < 1e-10
        assert np.max(np.abs(blocks["-+"] + 1j * gam)) < 1e-10

    def test_direct_route_agrees_with_svd_route(self):
        # The naive formula evaluation is accurate while the metric is
        # moderately conditioned; both routes must then coincide.
        h = pt_hamiltonian(0.6)
        result = dilate(h, cfg(TimeGrid(0.0, 2.0, 1001)))
        eta, deta = eta_series(result.m_series, h)
        lam, gam, lam_presym = lambda_gamma(h, result.m_series, eta, deta)
        lam_svd, gam_svd = decode_lambda_gamma(result.hsa_series.data)
        assert np.max(np.abs(lam.data - lam_svd)) < 1e-8
        assert np.max(np.abs(gam.data - gam_svd)) < 1e-8
        assert np.max(lam_presym) < 1e-6


@st.composite
def dilation_cases(draw):
    """(r, t1, n_nodes) with t1 inside the horizon the metric can carry.

    For r > 1, cond(W) grows like e^{2 sqrt(r^2 - 1) t}; t1 is capped at
    half the horizon where that reaches the 1e14 condition limit.
    """
    r = draw(st.floats(min_value=0.0, max_value=2.0))
    t_max = 8.0
    if r > 1.0:
        t_max = min(t_max, math.log(1e14) / (4.0 * math.sqrt(r * r - 1.0)))
    t1 = draw(st.floats(min_value=0.5, max_value=t_max))
    n_nodes = draw(st.integers(min_value=51, max_value=401))
    return r, t1, n_nodes


class TestDilationProperties:
    @settings(max_examples=30, deadline=None)
    @given(dilation_cases())
    def test_invariants_over_random_strength_horizon_grid(self, case):
        r, t1, n_nodes = case
        margin = 0.1
        traj, result = simulate_pt(r, TimeGrid(0.0, t1, n_nodes), margin=margin)
        report = verify_dilation(result, pt_hamiltonian(r))
        assert report.hermiticity <= 1e-10
        assert report.block_antisym <= 1e-9
        assert report.min_eig_m_minus_i >= 0.99 * margin
        assert np.all(traj.success_prob > 0.0) and np.all(traj.success_prob <= 1.0)
        assert np.all(traj.p0 >= -1e-12) and np.all(traj.p0 <= 1.0 + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=EP_WINDOW / 4.0, max_value=4.0 * EP_WINDOW),
        st.sampled_from([-1.0, 1.0]),
        st.floats(min_value=0.0, max_value=8.0),
    )
    def test_analytic_p0_continuous_across_ep_window(self, delta, sign, t):
        # r within EP_WINDOW of 1 takes the nilpotent closed form; just
        # outside it the regular forms must agree with it.
        jump = abs(analytic_p0(1.0 + sign * delta, t) - analytic_p0(1.0, t))
        assert jump <= 1e-6


class TestPostselectionFidelity:
    @pytest.mark.parametrize("r", [0.3, 0.9, 1.2])
    def test_projected_propagation_reproduces_hs_evolution(self, r):
        # Evolve |psi0>(|-> + eta0 |+>) under H_sa stepwise; projecting the
        # ancilla on |-> must reproduce e^{-i H_s t} |psi0> as a ray.
        h = pt_hamiltonian(r)
        grid = TimeGrid(0.0, 2.0, 2001)
        result = dilate(h, cfg(grid))
        eta0 = np.sqrt(result.m0 - 1.0)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        anc = (ANCILLA_MINUS + eta0 * ANCILLA_PLUS) / np.sqrt(1.0 + eta0**2)
        state = np.kron(psi0, anc)
        hsa = block_diag(result.hsa_series.data)
        hmid = (hsa[:-1] + hsa[1:]) / 2.0
        steps = expm(-1j * grid.dt * hmid)
        for k in range(grid.n_nodes - 1):
            state = steps[k] @ state
        proj = state.reshape(2, 2) @ ANCILLA_MINUS.conj()
        ref = expm(-1j * grid.t1 * h) @ psi0
        overlap = abs(np.vdot(proj, ref)) / (
            np.linalg.norm(proj) * np.linalg.norm(ref)
        )
        assert overlap == pytest.approx(1.0, abs=1e-6)


class TestConfigValidation:
    def test_rejects_nonpositive_margin(self):
        with pytest.raises(ValueError):
            DilationConfig(grid=GRID, margin=0.0)

    def test_explicit_m0_must_exceed_one(self):
        with pytest.raises(ValueError):
            dilate(pt_hamiltonian(0.1), cfg(), m0=0.9)

    @pytest.mark.parametrize("margin", [math.inf, 1e308])
    def test_overflowing_m0_rejected(self, margin):
        # m0 = (1 + margin) / mu' is inf for both margins.
        with pytest.raises(ValueError, match="m0 must be finite"):
            dilate(pt_hamiltonian(0.6), cfg(margin=margin))
