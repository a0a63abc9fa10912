"""NV pulse-synthesis tests: carriers, drive reconstruction, lab-frame audit."""

import math

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def short_audit():
    """Lab-frame trajectory at r = 0.6 over [0, 0.5] on 40001 fine nodes."""
    coarse = TimeGrid(0.0, 0.5, 501)
    aser, result = aseries_for(0.6, coarse)
    prog = synthesize(aser, subspace_h0(NVParams())[1])
    init = prepare_initial(np.array([1.0, 0.0]), math.sqrt(result.m0 - 1.0))
    return simulate_lab_frame(prog, aser, NVParams(), TimeGrid(0.0, 0.5, 40001), init)


class TestLabFrame:
    def test_grid_too_coarse_raises(self):
        grid = TimeGrid(0.0, 0.5, 101)
        aser, result = aseries_for(0.6, TimeGrid(0.0, 0.5, 101))
        prog = synthesize(aser, subspace_h0(NVParams())[1])
        init = prepare_initial(np.array([1.0, 0.0]), math.sqrt(result.m0 - 1.0))
        with pytest.raises(GridTooCoarse):
            simulate_lab_frame(prog, aser, NVParams(), grid, init)

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
        lab = short_audit
        for tq in (0.2, 0.5):
            idx = int(round(tq / lab.grid.dt))
            assert lab.p0[idx] == pytest.approx(
                float(analytic_p0(0.6, tq)), abs=2e-3
            )

    def test_short_audit_keeps_unit_norm(self, short_audit):
        norms = np.linalg.norm(short_audit.states, axis=-1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-13
