"""Dilated-evolution and post-selection tests against the closed-form oracle."""

import threading
import tracemalloc

import numpy as np
import pytest
from reference_dilation import eta_series
from reference_expm import expm
from reference_pauli import hsa_blocks
from reference_steps import block_diag, evolve_dilated_in_order

from ptdilate import simulator
from ptdilate.dilation import ANCILLA_MINUS, ANCILLA_PLUS, DilationConfig, dilate
from ptdilate.numkit import OperatorSeries, TimeGrid
from ptdilate.ptmodel import analytic_p0, pt_hamiltonian
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
    hsa = OperatorSeries(TimeGrid(0.0, 1.0, 2), np.zeros((2, 2, 4)))
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
        hsa = block_diag(hsa_blocks(result.hsa_series.data))
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

    def test_peak_memory_per_node(self):
        # Steps, chain and post-selection live for one chunk of
        # _STEPS_PER_CHUNK steps; only the returned trajectory (80 B per
        # node) spans the grid.  Over the whole grid at once they peaked
        # near 460 B per node, above the dilation's own peak.
        grid = TimeGrid(0.0, 16.0, 200001)
        result = dilate(pt_hamiltonian(1.4), DilationConfig(grid))
        initial = prepare_initial(np.array([1.0, 0.0]), np.sqrt(result.m0 - 1.0))
        tracemalloc.start()
        try:
            evolve_dilated(result.hsa_series, initial)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150 * grid.n_nodes

    def test_chunked_run_matches_one_chunk(self, monkeypatch):
        # Five chunks of 800 steps, each chained on from the last state of
        # the one before, against one chunk of all 4000: the same steps,
        # associated differently, so equal to rounding.
        grid = TimeGrid(0.0, 8.0, 4001)
        result = dilate(pt_hamiltonian(0.6), DilationConfig(grid))
        initial = prepare_initial(np.array([1.0, 0.0]), np.sqrt(result.m0 - 1.0))
        whole = evolve_dilated(result.hsa_series, initial)
        monkeypatch.setattr(simulator, "_STEPS_PER_CHUNK", 800)
        chunked = evolve_dilated(result.hsa_series, initial)
        assert np.max(np.abs(chunked.states - whole.states)) <= 1e-13
        assert np.max(np.abs(chunked.p0 - whole.p0)) <= 1e-13

    def test_chunked_run_raises_on_empty_branch(self, monkeypatch):
        monkeypatch.setattr(simulator, "_STEPS_PER_CHUNK", 3)
        hsa = OperatorSeries(TimeGrid(0.0, 1.0, 11), np.zeros((11, 2, 4)))
        with pytest.raises(ZeroBranch):
            evolve_dilated(hsa, np.kron([1.0, 0.0], ANCILLA_PLUS))


# |0>|->: every state of a zero Hamiltonian post-selects with weight 1.
STILL_START = np.kron([1.0, 0.0], ANCILLA_MINUS)


def still_parts(i, j):
    """Parts (z, x) of steps i .. j - 1 of a zero Hamiltonian and the unit phase of nodes i .. j."""
    phase = np.ones((j - i + 1, 4), dtype=complex)
    return np.zeros((j - i, 2)), np.zeros((j - i, 2), dtype=complex), phase


def still_parts_but(step, part, value):
    """``still_parts`` with ``value`` in part ``part`` (0: z, 2: phase) of step ``step``
    (for the phase, of node ``step``)."""

    def parts(i, j):
        out = still_parts(i, j)
        if i <= step < j:
            out[part][step - i] = value
        return out

    return parts


class TestPipelinedChunks:
    # Past one chunk a helper thread builds chunk k + 1's steps and phase
    # while the calling thread chains chunk k and post-selects it.

    @pytest.mark.parametrize("r", [0.6, 1.4])
    def test_matches_in_order_loop_bitwise(self, r):
        # 20,000 steps: two full chunks and a ragged third.
        grid = TimeGrid(0.0, 8.0, 20001)
        assert 2 * simulator._STEPS_PER_CHUNK < grid.n_nodes - 1 < 3 * simulator._STEPS_PER_CHUNK
        result = dilate(pt_hamiltonian(r), DilationConfig(grid))
        initial = prepare_initial(np.array([1.0, 0.0]), np.sqrt(result.m0 - 1.0))
        traj = evolve_dilated(result.hsa_series, initial)
        ref = evolve_dilated_in_order(result.hsa_series, initial, simulator._STEPS_PER_CHUNK)
        for name, want in zip(("states", "p0", "success_prob"), ref):
            assert np.array_equal(getattr(traj, name), want), name

    def test_no_thread_outlives_a_run(self, monkeypatch):
        monkeypatch.setattr(simulator, "_STEPS_PER_CHUNK", 4)
        before = threading.active_count()
        traj = simulator._evolve(TimeGrid(0.0, 1.0, 11), still_parts, STILL_START)
        assert threading.active_count() == before
        assert np.array_equal(traj.p0, np.ones(11))

    def test_no_thread_outlives_a_later_empty_branch(self, monkeypatch):
        # A NaN phase at node 5 (chunk 2 of 3) makes its branch weight NaN:
        # ZeroBranch raises on the calling thread while chunk 3 is built.
        monkeypatch.setattr(simulator, "_STEPS_PER_CHUNK", 4)
        seen = []

        def parts(i, j):
            seen.append(i)
            return still_parts_but(5, 2, np.nan)(i, j)

        before = threading.active_count()
        with pytest.raises(ZeroBranch):
            simulator._evolve(TimeGrid(0.0, 1.0, 11), parts, STILL_START)
        assert threading.active_count() == before
        assert seen == [0, 4, 8]

    def test_helper_error_reaches_the_caller_unchanged(self, monkeypatch):
        monkeypatch.setattr(simulator, "_STEPS_PER_CHUNK", 4)
        err = KeyError("chunk 2")

        def parts(i, j):
            if i == 4:
                raise err
            return still_parts(i, j)

        before = threading.active_count()
        with pytest.raises(KeyError) as caught:
            simulator._evolve(TimeGrid(0.0, 1.0, 11), parts, STILL_START)
        assert caught.value is err
        assert threading.active_count() == before

    @pytest.mark.parametrize("steps_per_chunk", [16, 4])  # one chunk; step 5 on the helper
    def test_callers_error_state_reaches_every_chunk(self, monkeypatch, steps_per_chunk):
        # A fresh thread starts from numpy's default error state: the helper
        # must run under the caller's, as the calling thread does.
        monkeypatch.setattr(simulator, "_STEPS_PER_CHUNK", steps_per_chunk)
        parts = still_parts_but(5, 0, np.inf)  # cos(dt hypot(inf, 0)) is invalid
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            simulator._evolve(TimeGrid(0.0, 1.0, 11), parts, STILL_START)


class TestSimulatePT:
    @pytest.mark.parametrize("r", [0.0, 0.6, 1.0, 1.4])
    def test_matches_analytic_population(self, r):
        grid = TimeGrid(0.0, 4.0, 4001)
        traj, _ = simulate_pt(r, grid)
        oracle = analytic_p0(r, grid.times())
        assert np.max(np.abs(traj.p0 - oracle)) < 1e-5

    def test_shifted_grid_compares_at_elapsed_time(self):
        # H_s is constant, so a run from t0 = 1 is the run from 0 shifted:
        # the oracle takes the time elapsed since |0> was prepared.
        grid = TimeGrid(1.0, 3.0, 201)
        traj, _ = simulate_pt(0.6, grid)
        assert np.max(np.abs(traj.p0 - analytic_p0(0.6, grid.times() - grid.t0))) < 1e-5
        from_zero, _ = simulate_pt(0.6, TimeGrid(0.0, 2.0, 201))
        assert np.max(np.abs(traj.p0 - from_zero.p0)) < 1e-12

    def test_success_probability_identity(self):
        # psi^dag M psi is conserved, so the |-> branch weight equals
        # |psi(t)|^2 / m0 with psi = e^{-i t H_s} |0>.
        r = 0.6
        grid = TimeGrid(0.0, 4.0, 4001)
        traj, result = simulate_pt(r, grid)
        h = pt_hamiltonian(r)
        psi = expm(-1j * grid.times()[:, None, None] * h) @ np.array([1.0, 0.0], dtype=complex)
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
        result = dilate(pt_hamiltonian(0.0), DilationConfig(grid))
        traj = evolve_dilated(result.hsa_series, prepare_initial(psi0, np.sqrt(result.m0 - 1.0)))
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

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (8001, 4), (3, 5, 4)])
    def test_norms_sum_as_np_sum_bit_for_bit(self, shape):
        # _norm_sq adds the four level columns in turn; that must be np.sum's
        # own order over a length-4 axis, so post-selection and the readout
        # populations keep their bits.  Amplitudes over ~40 decades make any
        # other association round differently somewhere in a long stack.
        rng = np.random.default_rng(37)
        scale = np.exp(rng.normal(scale=10.0, size=shape))
        states = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
        want = np.sum(np.abs(states) ** 2, axis=-1, keepdims=True)
        got = simulator._norm_sq(states)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def closed_form_propagators(r, t):
    """e^{-i H t} = cos(E t) I - i sin(E t)/E H, E = sqrt(1 - r^2) (imaginary
    above r = 1), and I - i H t at r = 1, for each time of ``t``."""
    h, e = pt_hamiltonian(r), np.sqrt(complex(1.0 - r * r))
    t = np.asarray(t, dtype=float)[:, None, None]
    if r == 1.0:
        return np.eye(2) - 1j * t * h
    return np.cos(e * t) * np.eye(2) - 1j * np.sin(e * t) / e * h


def distinguishability(phi0, phi1):
    """D = sqrt(1 - |<phi0|phi1>|^2) of two stacks of system states, each normalized here."""
    phi0, phi1 = (p / np.linalg.norm(p, axis=-1, keepdims=True) for p in (phi0, phi1))
    overlap = np.abs(np.sum(phi0.conj() * phi1, axis=-1)) ** 2
    return np.sqrt(np.maximum(1.0 - overlap, 0.0))


def closed_form_distinguishability(r, t):
    u = closed_form_propagators(r, t)
    return distinguishability(u[..., 0], u[..., 1])  # the evolved |0> and |1>


class TestDistinguishability:
    # Kawabata, Ashida & Ueda, PRL 119, 190401 (2017): how well the
    # post-selected states from |0> and |1> can be told apart.  In the
    # unbroken regime D oscillates and returns to 1 (information flows back
    # from the environment); at and past the exceptional point it only decays.
    GRID = TimeGrid(0.0, 8.0, 8001)

    @pytest.fixture(scope="class")
    def simulated(self):
        """D(t) of two runs under one dilation per r, post-selected on |->."""
        curves = {}
        for r in (0.0, 0.6, 0.9, 1.0, 1.4):
            result = dilate(pt_hamiltonian(r), DilationConfig(self.GRID))
            eta0 = np.sqrt(result.m0 - 1.0)
            runs = [
                evolve_dilated(result.hsa_series, prepare_initial(psi0, eta0))
                for psi0 in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            ]
            phis = [run.states.reshape(-1, 2, 2) @ ANCILLA_MINUS.conj() for run in runs]
            curves[r] = distinguishability(*phis)
        return curves

    @pytest.mark.parametrize("r", [0.0, 0.6, 0.9, 1.0, 1.4])
    def test_matches_closed_form(self, simulated, r):
        # The midpoint stepper's O(dt^2) error: up to 2.5e-7 at dt = 1e-3.
        want = closed_form_distinguishability(r, self.GRID.times())
        assert np.max(np.abs(simulated[r] - want)) <= 3e-7

    @pytest.mark.parametrize("r", [0.6, 0.9])
    def test_unbroken_regime_revives(self, simulated, r):
        # D dips to (1 - r^2)/(1 + r^2) at half the period pi/k, k = sqrt(1 - r^2)
        # (0.47 at r = 0.6, 0.105 at r = 0.9), and is back to 1 at pi/k.
        k = np.sqrt(1.0 - r * r)
        dip, back = closed_form_distinguishability(r, [np.pi / (2.0 * k), np.pi / k])
        assert dip == pytest.approx((1.0 - r * r) / (1.0 + r * r), abs=1e-13)
        assert back == pytest.approx(1.0, abs=1e-13)
        d, ts = simulated[r], self.GRID.times()
        assert np.min(d) == pytest.approx(dip, abs=1e-6)
        assert d[np.argmin(np.abs(ts - np.pi / k))] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("r, d_end", [(1.0, 7.8e-3), (1.4, 2.1e-7)])
    def test_no_revival_at_or_past_the_exceptional_point(self, simulated, r, d_end):
        # D(t) = 1/sqrt(1 + 4 t^4) at r = 1; faster, exponential decay at 1.4.
        d = simulated[r]
        # Never rises, to the rounding of 1 - |<phi0|phi1>|^2 (~eps), which
        # moves D = sqrt(1 - |<phi0|phi1>|^2) by ~eps / (2 D).
        assert np.all(np.diff(d) <= 4.0 * np.finfo(float).eps / d[1:])
        assert d[-1] == pytest.approx(d_end, rel=0.05)  # D ~ 2e-7 rounds at ~1e-9
        if r == 1.0:
            assert np.max(np.abs(d - 1.0 / np.sqrt(1.0 + 4.0 * self.GRID.times() ** 4))) <= 3e-7

    def test_hermitian_point_keeps_them_orthogonal(self, simulated):
        assert np.min(simulated[0.0]) >= 1.0 - 1e-13
