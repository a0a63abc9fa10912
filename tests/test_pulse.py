"""NV pulse-synthesis tests: carriers, drive reconstruction, lab-frame audit."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from reference_lab_frame import a_integrals
from reference_lab_frame import simulate_lab_frame as whole_grid_lab_frame
from reference_steps import ordered_product, su2_matrices

from ptdilate import pulse, simulator
from ptdilate.cli import main
from ptdilate.dilation import ANCILLA_PLUS, DilationConfig, dilate
from ptdilate.numkit import TimeGrid
from ptdilate.pauli import extract_a_series
from ptdilate.ptmodel import analytic_p0, pt_hamiltonian
from ptdilate.pulse import (
    GridTooCoarse,
    NVParams,
    rotating_frame_check,
    simulate_lab_frame,
    subspace_h0,
    synthesize,
)
from ptdilate.simulator import ZeroBranch, prepare_initial


def aseries_for(r, grid):
    result = dilate(pt_hamiltonian(r), DilationConfig(grid))
    return extract_a_series(result.hsa_series), result


class TestNVParams:
    def test_zeeman_signs(self):
        p = NVParams()
        # Negative electron gyromagnetic ratio gives a positive splitting.
        assert p.omega_e == pytest.approx(1418.065)
        assert p.omega_n == pytest.approx(-0.1557, abs=1e-4)

    def test_rejects_nonpositive_field(self):
        with pytest.raises(ValueError):
            NVParams(b_field=0.0)


class TestSubspaceH0:
    def test_carrier_frequencies(self):
        _, (w1, w2) = subspace_h0(NVParams())
        assert w1 / (2.0 * math.pi) == pytest.approx(1454.095)
        assert w2 / (2.0 * math.pi) == pytest.approx(1451.935)

    def test_carrier_split_is_hyperfine(self):
        p = NVParams()
        _, (w1, w2) = subspace_h0(p)
        assert (w1 - w2) / (2.0 * math.pi) == pytest.approx(abs(p.hyperfine))

    def test_nuclear_transition_frequencies(self):
        # The two nuclear-flip gaps (RF transitions) land near 5.1 MHz in
        # the m_s = 0 manifold and 2.9 MHz in m_s = -1, which pins the
        # signs of the quadrupole/hyperfine/Zeeman terms.
        p = NVParams()
        h0, _ = subspace_h0(p)
        diag = np.real(np.diag(h0)) / (2.0 * math.pi)
        gap_ms0 = abs(diag[0] - diag[1])
        gap_msm1 = abs(diag[2] - diag[3])
        assert gap_ms0 == pytest.approx(abs(p.quadrupole + p.omega_n), abs=1e-9)
        assert gap_msm1 == pytest.approx(
            abs(p.quadrupole + p.omega_n - p.hyperfine), abs=1e-9
        )
        assert gap_ms0 == pytest.approx(5.1, abs=0.05)
        assert gap_msm1 == pytest.approx(2.9, abs=0.05)

    def test_h0_is_diagonal(self):
        h0, _ = subspace_h0(NVParams())
        assert np.max(np.abs(h0 - np.diag(np.diag(h0)))) == 0.0


class TestSynthesize:
    @pytest.mark.parametrize("r", [0.6, 1.0])
    def test_roundtrip_residual(self, r):
        grid = TimeGrid(0.0, 4.0, 801)
        aser, _ = aseries_for(r, grid)
        _, carriers = subspace_h0(NVParams())
        prog = synthesize(aser, carriers)
        assert rotating_frame_check(prog, aser) < 1e-9

    def test_phase_is_continuous(self):
        grid = TimeGrid(0.0, 4.0, 801)
        aser, _ = aseries_for(1.0, grid)
        prog = synthesize(aser, subspace_h0(NVParams())[1])
        assert np.max(np.abs(np.diff(prog.phase))) < 1.0

    def test_rabi_amplitude_nonnegative(self):
        grid = TimeGrid(0.0, 4.0, 801)
        aser, _ = aseries_for(1.4, grid)
        prog = synthesize(aser, subspace_h0(NVParams())[1])
        assert np.min(prog.omega_rabi) >= 0.0

    def test_frequency_offsets_track_a4(self):
        grid = TimeGrid(0.0, 2.0, 201)
        aser, _ = aseries_for(0.6, grid)
        _, (w1, w2) = subspace_h0(NVParams())
        prog = synthesize(aser, (w1, w2))
        assert np.allclose(prog.freq1 - w1, 2.0 * aser.a[:, 3])
        assert np.allclose(prog.freq2 - w2, -2.0 * aser.a[:, 3])

    def test_phase_branch_flip_detected(self):
        # Shifting the phase by pi flips both quadratures; the residual
        # jumps to the full drive amplitude 2 sqrt(A1^2 + A3^2).
        grid = TimeGrid(0.0, 4.0, 401)
        aser, _ = aseries_for(0.6, grid)
        prog = synthesize(aser, subspace_h0(NVParams())[1])
        prog.phase = prog.phase + math.pi
        resid = rotating_frame_check(prog, aser)
        expected = 2.0 * np.max(np.hypot(aser.a[:, 0], aser.a[:, 2]))
        assert resid == pytest.approx(expected, rel=1e-9)

    def test_rejects_non_finite_series(self):
        grid = TimeGrid(0.0, 1.0, 3)
        aser, _ = aseries_for(0.6, TimeGrid(0.0, 1.0, 3))
        aser.a[1, 0] = np.nan
        with pytest.raises(ValueError):
            synthesize(aser, subspace_h0(NVParams())[1])

    def test_csv_layout(self, tmp_path):
        assert main(
            ["pulses", "--r", "0.6", "--n-nodes", "3", "--t1", "1", "--outdir", str(tmp_path)]
        ) == 0
        lines = (tmp_path / "pulses_r0p6.csv").read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "t,omega_rabi,phase,freq1_offset,freq2_offset"
        assert len(lines) == 5
        assert [float(ln.split(",")[0]) for ln in lines[2:]] == [0.0, 0.5, 1.0]


def audit_inputs(t1, n_fine):
    """Program, A-series, fine grid and start state at r = 0.6 over [0, t1]."""
    aser, result = aseries_for(0.6, TimeGrid(0.0, t1, int(round(1000 * t1)) + 1))
    prog = synthesize(aser, subspace_h0(NVParams())[1])
    init = prepare_initial(np.array([1.0, 0.0]), math.sqrt(result.m0 - 1.0))
    return prog, aser, NVParams(), TimeGrid(0.0, t1, n_fine), init


def run_short_audit():
    """Lab-frame trajectory at r = 0.6 over [0, 0.5] on 40001 fine nodes."""
    return simulate_lab_frame(*audit_inputs(0.5, 40001))


def with_states(run):
    """The trajectory ``run()`` returns and its rotated states at every node.

    The lab audit keeps no states (``Trajectory.states`` is None), so a spy on
    ``simulator._postselect_batch`` copies each chunk's, boundary node
    included: the end node of one chunk, the start of the next, must come
    out of both the same.
    """
    chunks = []
    postselect = simulator._postselect_batch

    def spy(states):
        chunks.append(states.copy())
        return postselect(states)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_postselect_batch", spy)
        traj = run()
    assert traj.states is None
    for prev, nxt in zip(chunks, chunks[1:]):
        assert np.array_equal(prev[-1], nxt[0])
    states = np.concatenate([c[:-1] for c in chunks[:-1]] + chunks[-1:])
    assert states.shape == (traj.grid.n_nodes, 4)
    return traj, states


def block_z():
    """z_k of the two traceless lab blocks, (h0[k, k] - h0[k + 2, k + 2]) / 2 (rad/us)."""
    h0_diag = np.real(np.diag(subspace_h0(NVParams())[0]))
    return (h0_diag[:2] - h0_diag[2:]) / 2.0


def serial_chain(pairs, init, out):
    """``chain_su2`` as one serial loop over the same 2x2 steps (the block
    axis matrix-multiplies column vectors)."""
    out[...] = ordered_product(su2_matrices(pairs), init[..., None])[..., 0]
    return out


def audit_peak(t1, n_fine):
    """tracemalloc peak of one lab-frame run, its inputs built beforehand."""
    inputs = audit_inputs(t1, n_fine)
    tracemalloc.start()
    try:
        simulate_lab_frame(*inputs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def short_audit():
    """The short audit's trajectory and its states."""
    return with_states(run_short_audit)


class TestLabFrame:
    def test_grid_too_coarse_raises(self):
        grid = TimeGrid(0.0, 0.5, 101)
        aser, result = aseries_for(0.6, TimeGrid(0.0, 0.5, 101))
        prog = synthesize(aser, subspace_h0(NVParams())[1])
        init = prepare_initial(np.array([1.0, 0.0]), math.sqrt(result.m0 - 1.0))
        with pytest.raises(GridTooCoarse):
            simulate_lab_frame(prog, aser, NVParams(), grid, init)

    def test_fine_grid_past_the_program_raises(self):
        # np.interp would hold the last drive value past the program's end.
        aser, result = aseries_for(0.6, TimeGrid(0.0, 0.01, 11))
        prog = synthesize(aser, subspace_h0(NVParams())[1])
        init = prepare_initial(np.array([1.0, 0.0]), math.sqrt(result.m0 - 1.0))
        with pytest.raises(ValueError, match="inside the pulse program's grid"):
            simulate_lab_frame(prog, aser, NVParams(), TimeGrid(0.0, 0.02, 2001), init)

    def test_empty_minus_branch_raises(self):
        # A start entirely in the |+> ancilla branch leaves nothing to
        # post-select at t = 0.
        aser, _ = aseries_for(0.6, TimeGrid(0.0, 0.01, 11))
        prog = synthesize(aser, subspace_h0(NVParams())[1])
        init = np.kron([1.0, 0.0], ANCILLA_PLUS)
        with pytest.raises(ZeroBranch):
            simulate_lab_frame(prog, aser, NVParams(), TimeGrid(0.0, 0.002, 201), init)

    def test_short_audit_matches_rotating_frame(self, short_audit):
        # Full cosine-drive integration over half a time unit; the RWA
        # deviation must stay far below the 0.02 audit bound.
        lab, _ = short_audit
        for tq in (0.2, 0.5):
            idx = int(round(tq / lab.grid.dt))
            assert lab.p0[idx] == pytest.approx(
                float(analytic_p0(0.6, tq)), abs=2e-3
            )

    def test_short_audit_keeps_unit_norm(self, short_audit):
        _, states = short_audit
        norms = np.linalg.norm(states, axis=-1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-13

    def test_short_audit_matches_serial_chain(self, short_audit, monkeypatch):
        # The 40000 steps run as five chunks, each chained from the last
        # state of the one before.  One serial loop over all the same 2x2
        # steps must agree.
        assert simulator._STEPS_PER_CHUNK < 40000
        monkeypatch.setattr(simulator, "_STEPS_PER_CHUNK", 40000)
        calls = []

        def counted_chain(pairs, init, out):
            calls.append(len(pairs))
            return serial_chain(pairs, init, out)

        monkeypatch.setattr(simulator, "chain_su2", counted_chain)
        _, serial = with_states(run_short_audit)
        assert calls == [40000]
        _, chunked = short_audit
        assert np.max(np.abs(chunked - serial)) <= 1e-13

    def test_short_audit_does_not_depend_on_chunk_size(self, monkeypatch):
        # Chained serially, the 40000 steps give bitwise the same trajectory
        # as one chunk, as 8192-step chunks and as 1000-step ones: no phase,
        # drive or A-integral depends on where its chunk starts.
        monkeypatch.setattr(simulator, "chain_su2", serial_chain)
        runs = []
        for size in (40000, 8192, 1000):
            monkeypatch.setattr(simulator, "_STEPS_PER_CHUNK", size)
            lab, states = with_states(run_short_audit)
            runs.append((states, lab.p0, lab.success_prob))
        for run in runs[1:]:
            for name, got, want in zip(("states", "p0", "success_prob"), run, runs[0]):
                assert np.array_equal(got, want), name

    @pytest.mark.parametrize(
        "t1, n_fine",
        [
            (0.1, 8001),  # one chunk, shorter than _STEPS_PER_CHUNK
            (0.4, 32769),  # four full chunks
            (0.5, 40001),  # four full chunks and a ragged last one
        ],
    )
    def test_matches_whole_grid_oracle_to_phase_rounding(self, t1, n_fine):
        # Streaming changes where each node is computed, not how, but for the
        # back-rotation phase: the oracle takes e^{i x} of the float exponent
        # x, the package multiplies unit numbers from a table.  Each rounds
        # phases of up to max|z| t1 rad at ~eps of their size.
        inputs = audit_inputs(t1, n_fine)
        lab, states = with_states(lambda: simulate_lab_frame(*inputs))
        ref = whole_grid_lab_frame(*inputs)
        tol = 4 * np.finfo(float).eps * np.max(np.abs(block_z())) * t1
        for name, got in (("states", states), ("p0", lab.p0), ("success_prob", lab.success_prob)):
            assert np.max(np.abs(got - getattr(ref, name))) <= tol, name

    def test_back_rotation_phase_accuracy(self, monkeypatch):
        # The phase the audit applies, e^{i x} of x = z_rot t - int_a2 (I x sz)
        # - int_a4 (sz x sz), against mpmath's e^{i x} of the same float
        # inputs, on both sides of every anchor block and chunk boundary to
        # t = 16 (|x| up to 7.3e4 rad): within 4 eps |x| at every node, and at
        # its worst node no further off than cos/sin of the float exponent at
        # its worst.
        inputs = audit_inputs(16.0, 1_200_001)
        grid = inputs[3]
        captured = {}
        monkeypatch.setattr(
            pulse, "_evolve", lambda g, parts, i, frame: captured.update(parts=parts, frame=frame)
        )
        simulate_lab_frame(*inputs)
        n, size = grid.n_nodes, simulator._STEPS_PER_CHUNK
        starts = np.arange(0, n - 1, size)
        edges = np.union1d(np.arange(pulse._ANCHOR_NODES, n, pulse._ANCHOR_NODES), starts[1:])
        nodes = np.union1d(edges - 1, edges)
        got = {}
        for start in starts:  # in chunk order: the integrals are carried
            stop = min(start + size, n - 1)
            captured["parts"](start, stop)
            phase = captured["frame"](slice(start, stop + 1))
            for node in nodes[(nodes >= start) & (nodes <= stop)]:
                got.setdefault(node, []).append(phase[node - start])
        for node in starts[1:]:  # the end node of one chunk starts the next
            assert np.array_equal(got[node][0], got[node][1])
        phase = np.array([got[node][0] for node in nodes])

        int_a2, int_a4 = (v[nodes] for v in a_integrals(*inputs[:2], grid))
        ts = grid.times()[nodes]
        z_rot = np.concatenate([block_z(), -block_z()])
        sz_n, sz_sz = np.array([1.0, -1.0, 1.0, -1.0]), np.array([1.0, -1.0, -1.0, 1.0])
        x = z_rot * ts[:, None] - int_a2[:, None] * sz_n - int_a4[:, None] * sz_sz

        def exact_phase(t, i2, i4):
            t, i2, i4 = mpmath.mpf(t), mpmath.mpf(i2), mpmath.mpf(i4)
            cols = zip(z_rot.tolist(), sz_n.tolist(), sz_sz.tolist())
            return [complex(mpmath.expj(zk * t - sn * i2 - ss * i4)) for zk, sn, ss in cols]

        with mpmath.workprec(160):  # each product and sum of the float inputs is exact
            exact = np.array([exact_phase(*node) for node in zip(ts, int_a2, int_a4)])
        err = np.abs(phase - exact)
        assert np.all(err <= 4 * np.finfo(float).eps * np.abs(x))
        assert np.max(err) <= np.max(np.abs(np.exp(1j * x) - exact))

    def test_peak_memory_per_fine_node(self):
        # Only the returned p0 and success_prob (16 B per node) span the fine
        # grid; the chunk's own working set, its states, fine times and
        # A-integrals included, is fixed.  So doubling the short audit's grid
        # may add at most 20 B per added node (88 with the states and fine
        # times over the whole grid; ~325 with the drive angles,
        # back-rotation and post-selection over it too).
        grown = audit_peak(1.0, 80001) - audit_peak(0.5, 40001)
        assert grown <= 20 * 40000
