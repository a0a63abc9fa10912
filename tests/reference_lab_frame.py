"""Test-side reference oracle: the lab-frame audit over whole-grid arrays.

The package streams the lab-frame audit (``ptdilate.pulse.simulate_lab_frame``)
chunk by chunk through ``ptdilate.simulator._evolve``, so only the returned
trajectory spans the fine grid, and builds its back-rotation phase from a
table of unit numbers.  This module keeps the version that builds every
drive angle, the A-integrals, the back-rotation (``np.exp`` of the real
exponent) and the post-selection (from all four ``branch_populations``) over
the whole fine grid at once, and steps full 2x2 matrices with the
full-matrix kernels of ``reference_steps``, for the tests to compare
trajectories against.  It chains the same ``_STEPS_PER_CHUNK`` chunks, so
the association of the step products is the same.  Imported by the tests;
not itself a test module.
"""

import math

import numpy as np
from reference_steps import chain_2x2, unitary_2x2

from ptdilate.numkit import TimeGrid
from ptdilate.pauli import PAULI_1Q, ASeries
from ptdilate.pulse import (
    _MAX_CYCLES_PER_STEP,
    GridTooCoarse,
    NVParams,
    PulseProgram,
    subspace_h0,
)
from ptdilate.simulator import _STEPS_PER_CHUNK, Trajectory, branch_populations


def a_integrals(prog: PulseProgram, a: ASeries, grid_fine: TimeGrid):
    """Cumulative trapezoid integrals of A2 and A4 at every node of ``grid_fine``."""
    ts, h = grid_fine.times(), grid_fine.dt

    def running_integral(col: int) -> np.ndarray:
        f = np.interp(ts, prog.grid.times(), a.a[:, col])
        return np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) / 2.0 * h)])

    return running_integral(1), running_integral(3)


def simulate_lab_frame(
    prog: PulseProgram,
    a: ASeries,
    params: NVParams,
    grid_fine: TimeGrid,
    initial: np.ndarray,
) -> Trajectory:
    """Integrate the cosine-drive Hamiltonian without RWA and rotate back.

    Slow audit path: steps the full lab-frame Hamiltonian (static
    subspace term plus the two selective cosine drives) on ``grid_fine``
    from the (4,) amplitudes ``initial``, transforms each node through the
    interaction-picture unitary (whose exponent is diagonal), and reports
    the post-selected trajectory.  The A-series supplies the A2/A4
    integrals that define the frame.  ``grid_fine`` must lie inside the
    program's grid; the drives are not extrapolated past it.
    """
    if grid_fine.t0 < prog.grid.t0 or grid_fine.t1 > prog.grid.t1:
        raise ValueError(
            f"grid_fine [{grid_fine.t0}, {grid_fine.t1}] must lie inside the "
            f"pulse program's grid [{prog.grid.t0}, {prog.grid.t1}]"
        )
    h0, _ = subspace_h0(params)
    f_carrier = max(abs(c) for c in prog.carriers) / (2.0 * math.pi)
    if grid_fine.dt * f_carrier > _MAX_CYCLES_PER_STEP:
        raise GridTooCoarse(
            f"dt={grid_fine.dt:.3e} spans {grid_fine.dt * f_carrier:.3f} carrier "
            f"cycles (limit {_MAX_CYCLES_PER_STEP})"
        )
    t_nodes = prog.grid.times()
    ts = grid_fine.times()
    h = grid_fine.dt
    n = grid_fine.n_nodes
    mids = ts[:-1] + h / 2.0

    int_a2, int_a4 = a_integrals(prog, a, grid_fine)

    w1, w2 = prog.carriers
    int_a4_mid = np.interp(mids, ts, int_a4)
    om_mid = np.interp(mids, t_nodes, prog.omega_rabi)
    ph_mid = np.interp(mids, t_nodes, prog.phase)
    # Cosine arguments of the two drives, drive 1 at -phi and drive 2 at +phi.
    angles = np.stack(
        [w1 * mids + 2.0 * int_a4_mid - ph_mid, w2 * mids - 2.0 * int_a4_mid + ph_mid], axis=-1
    )

    # H0 is diagonal and drive k flips the electron with the nuclear spin on
    # level k (|1>_n, then |0>_n): one 2x2 block per nuclear level.  Block k
    # drops its trace a_k, leaving z_k sz + drive sx, so its exponential has
    # no scalar phase whose rounding would drift the norm step by step;
    # e^{-i a_k t} is folded into the back-rotation below.
    h0_diag = np.real(np.diag(h0))
    z = (h0_diag[:2] - h0_diag[2:]) / 2.0  # (h0[k, k] - h0[k + 2, k + 2]) / 2
    states = np.empty((n, 4), dtype=complex)
    states[0] = initial
    for start in range(0, n - 1, _STEPS_PER_CHUNK):
        stop = min(start + _STEPS_PER_CHUNK, n - 1)
        drives = 2.0 * math.pi * om_mid[start:stop, None] * np.cos(angles[start:stop])
        blocks = z[:, None, None] * PAULI_1Q[3] + drives[..., None, None] * PAULI_1Q[1]
        chain = chain_2x2(unitary_2x2(blocks, h), states[start].reshape(2, 2).T)
        states[start : stop + 1] = chain.swapaxes(-1, -2).reshape(-1, 4)

    # Back to the rotating frame: the exponent of U_rot is diagonal; H0
    # enters it less the dropped traces, as (z, -z).
    sz_n = np.array([1.0, -1.0, 1.0, -1.0])  # I x sz diagonal
    sz_sz = np.array([1.0, -1.0, -1.0, 1.0])  # sz x sz diagonal
    exponent = (
        np.concatenate([z, -z])[None, :] * ts[:, None]
        - int_a2[:, None] * sz_n[None, :]
        - int_a4[:, None] * sz_sz[None, :]
    )
    states = np.exp(1j * exponent) * states

    pops = branch_populations(states)
    succ = pops[:, 0] + pops[:, 2]  # the |-> levels |0 1> and |-1 1>
    return Trajectory(grid=grid_fine, states=states, p0=pops[:, 0] / succ, success_prob=succ)
