"""Dilated-evolution and post-selection tests against the closed-form oracle."""

import numpy as np
import pytest
from reference_dilation import eta_series
from reference_expm import expm

from ptdilate.dilation import ANCILLA_MINUS, ANCILLA_PLUS
from ptdilate.numkit import OperatorSeries, TimeGrid, block_diag
from ptdilate.ptmodel import analytic_p0, analytic_state, pt_hamiltonian
from ptdilate.simulator import (
    ZeroBranch,
    branch_populations,
    evolve_dilated,
    prepare_initial,
    simulate_pt,
)


class TestPrepareInitial:
    def test_state_is_normalized(self):
        state = prepare_initial(np.array([1.0, 0.0]), 2.0)
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_zero_eta_is_pure_minus_branch(self):
        state = prepare_initial(np.array([0.0, 1.0]), 0.0)
        assert np.allclose(state, np.kron([0.0, 1.0], ANCILLA_MINUS))

    def test_rejects_unnormalized_system_state(self):
        with pytest.raises(ValueError):
            prepare_initial(np.array([1.0, 1.0]), 0.5)

    def test_rejects_wrong_system_dimension(self):
        with pytest.raises(ValueError, match="2-vector"):
            prepare_initial(np.array([1.0, 0.0, 0.0]), 0.5)

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            prepare_initial(np.array([1.0, 0.0]), -0.1)


def postselect_static(amplitudes):
    """Trajectory of a state held still by a 2-node zero H_sa series."""
    hsa = OperatorSeries(TimeGrid(0.0, 1.0, 2), np.zeros((2, 2, 2, 2)))
    return evolve_dilated(hsa, amplitudes)


class TestPostselect:
    def test_recovers_minus_branch_component(self):
        sys = np.array([0.6, 0.8j])
        traj = postselect_static(np.kron(sys, ANCILLA_MINUS))
        assert traj.success_prob == pytest.approx([1.0, 1.0])
        assert traj.p0 == pytest.approx([0.36, 0.36])

    def test_success_probability_of_mixture(self):
        sys = np.array([1.0, 0.0])
        amp = np.kron(sys, (ANCILLA_MINUS + ANCILLA_PLUS) / np.sqrt(2.0))
        assert postselect_static(amp).success_prob == pytest.approx([0.5, 0.5])

    def test_zero_branch_raises(self):
        with pytest.raises(ZeroBranch):
            postselect_static(np.kron([1.0, 0.0], ANCILLA_PLUS))

    def test_nan_branch_weight_raises(self):
        # NaN fails every comparison, so a bare "weight < bound" lets it through.
        with pytest.raises(ZeroBranch):
            postselect_static(np.full(4, np.nan, dtype=complex))


class TestEvolveDilated:
    @pytest.mark.parametrize("r", [0.0, 0.6, 1.0, 1.4])
    def test_matches_pade_step_product(self, r):
        # The closed-form block steps against generic Pade 4x4 steps of the
        # same midpoint H_sa, chained in the same order.
        grid = TimeGrid(0.0, 4.0, 2001)
        traj, result = simulate_pt(r, grid)
        hsa = block_diag(result.hsa_series.data)
        steps = expm(-1j * grid.dt * (hsa[:-1] + hsa[1:]) / 2.0)
        state = traj.states[0]
        ref = [state]
        for step in steps:
            state = step @ state
            ref.append(state)
        pops = branch_populations(np.array(ref))
        p0_ref = pops[:, 0] / (pops[:, 0] + pops[:, 2])
        assert np.max(np.abs(traj.p0 - p0_ref)) <= 1e-12

    @pytest.mark.parametrize("r", [0.0, 0.6, 1.0, 1.4])
    def test_states_match_closed_form_dilated_state(self, r):
        # Both ancilla branches at every node: the dilated state is
        # (psi x |-> + eta psi x |+>) / sqrt(m0), psi = e^{-i t H_s} psi0,
        # eta = sqrt(M - I) from the reference oracle.
        h = pt_hamiltonian(r)
        grid = TimeGrid(0.0, 2.0, 2001)
        traj, result = simulate_pt(r, grid)
        psi = expm(-1j * grid.times()[:, None, None] * h) @ np.array([1.0, 0.0], dtype=complex)
        eta, _ = eta_series(result.m_series, h)
        eta_psi = np.einsum("nij,nj->ni", eta.data, psi)
        expected = (
            np.einsum("ni,a->nia", psi, ANCILLA_MINUS)
            + np.einsum("ni,a->nia", eta_psi, ANCILLA_PLUS)
        ).reshape(-1, 4) / np.sqrt(result.m0)
        assert np.max(np.abs(traj.states - expected)) <= 1e-5


class TestSimulatePT:
    @pytest.mark.parametrize("r", [0.0, 0.6, 1.0, 1.4])
    def test_matches_analytic_population(self, r):
        grid = TimeGrid(0.0, 4.0, 4001)
        traj, _ = simulate_pt(r, grid)
        oracle = analytic_p0(r, grid.times())
        assert np.max(np.abs(traj.p0 - oracle)) < 1e-5

    def test_success_probability_identity(self):
        # psi^dag M psi is conserved, so the |-> branch weight equals
        # |psi(t)|^2 / m0 with psi the unnormalized closed-form state.
        r = 0.6
        grid = TimeGrid(0.0, 4.0, 4001)
        traj, result = simulate_pt(r, grid)
        psi = analytic_state(r, grid.times())
        expected = np.sum(np.abs(psi) ** 2, axis=-1) / result.m0
        assert np.max(np.abs(traj.success_prob - expected)) < 1e-6

    def test_success_probability_bounded(self):
        grid = TimeGrid(0.0, 4.0, 2001)
        for r in (0.0, 1.4):
            traj, _ = simulate_pt(r, grid)
            assert np.all(traj.success_prob > 0.0)
            assert np.all(traj.success_prob <= 1.0 + 1e-12)

    def test_norm_is_preserved_by_unitarity(self):
        grid = TimeGrid(0.0, 4.0, 2001)
        traj, _ = simulate_pt(1.4, grid)
        norms = np.linalg.norm(traj.states, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_custom_initial_state(self):
        grid = TimeGrid(0.0, 1.0, 501)
        psi0 = np.array([0.0, 1.0], dtype=complex)
        traj, _ = simulate_pt(0.0, grid, psi0=psi0)
        # Hermitian limit from |1>: P0 = sin^2 t.
        assert np.max(np.abs(traj.p0 - np.sin(grid.times()) ** 2)) < 1e-6


class TestTrajectoryHelpers:
    def test_branch_populations_are_a_distribution(self):
        grid = TimeGrid(0.0, 2.0, 501)
        traj, _ = simulate_pt(0.6, grid)
        pops = branch_populations(traj.states)
        assert np.max(np.abs(pops.sum(axis=-1) - 1.0)) < 1e-12
        assert np.min(pops) >= 0.0

    def test_selected_branch_weight_equals_success(self):
        grid = TimeGrid(0.0, 2.0, 501)
        traj, _ = simulate_pt(0.9, grid)
        pops = branch_populations(traj.states)
        assert np.max(np.abs(pops[:, 0] + pops[:, 2] - traj.success_prob)) < 1e-12

    def test_conditional_population_matches_p0(self):
        grid = TimeGrid(0.0, 2.0, 501)
        traj, _ = simulate_pt(0.9, grid)
        pops = branch_populations(traj.states)
        cond = pops[:, 0] / (pops[:, 0] + pops[:, 2])
        assert np.max(np.abs(cond - traj.p0)) < 1e-12
