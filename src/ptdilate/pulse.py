"""NV-center pulse synthesis for the dilated Hamiltonian.

Maps the A-coefficient form of H_sa onto the two-qubit subspace
{|0>_e|1>_n, |0>_e|0>_n, |-1>_e|1>_n, |-1>_e|0>_n} of the NV electron +
14N nuclear spin system: static subspace Hamiltonian, carrier
frequencies of the two selective MW transitions, Rabi/phase/frequency
trajectories of the drives, and a lab-frame integrator that audits the
rotating-wave approximation.

Units: frequencies in NVParams are MHz (cycles/us); Hamiltonians and
carrier/drive angular frequencies are rad/us; time is us (matching the
dimensionless time unit of the PT model at unit coupling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import TimeGrid, block_diag, ordered_product, unitary_2x2
from .pauli import PAULI_1Q, ASeries
from .simulator import Trajectory, _postselect_batch

__all__ = [
    "GridTooCoarse",
    "NVParams",
    "PulseProgram",
    "subspace_h0",
    "synthesize",
    "rotating_frame_check",
    "simulate_lab_frame",
]

# Max fraction of a carrier cycle a lab-frame step may span.
_MAX_CYCLES_PER_STEP = 0.02

# Lab-frame steps built per batch: bounds the memory of the ~1e5+ step
# audit.
_STEPS_PER_CHUNK = 16384


class GridTooCoarse(ValueError):
    """Lab-frame grid does not resolve the MW carrier."""


@dataclass(frozen=True)
class NVParams:
    """NV two-qubit constants; gyromagnetic ratios are gamma/2pi in MHz/G.

    The ratios are standard physical constants supplied as configuration
    (electron and 14N), not fitted quantities; their sign convention is
    pinned by the ~2.9 and ~5.1 MHz nuclear transition frequencies.
    """

    zero_field_splitting: float = 2870.0  # D, MHz
    quadrupole: float = -4.95  # Q, MHz
    hyperfine: float = -2.16  # A, MHz
    b_field: float = 506.0  # G
    gamma_e: float = -2.8025  # MHz/G
    gamma_n: float = 3.077e-4  # MHz/G

    def __post_init__(self):
        if not self.zero_field_splitting > 0:
            raise ValueError("zero-field splitting must be > 0")
        if not self.b_field > 0:
            raise ValueError("magnetic field must be > 0")

    @property
    def omega_e(self) -> float:
        """Electron Zeeman splitting, MHz: omega_e = -gamma_e B0."""
        return -self.gamma_e * self.b_field

    @property
    def omega_n(self) -> float:
        """Nuclear Zeeman splitting, MHz: omega_n = -gamma_n B0."""
        return -self.gamma_n * self.b_field


def subspace_h0(p: NVParams) -> tuple[np.ndarray, tuple[float, float]]:
    """Static two-qubit Hamiltonian (rad/us) and the MW carrier pair.

    H0 = pi [-(D - omega_e - A/2) sz x I + (Q + omega_n - A/2) I x sz
             + (A/2) sz x sz] in the electron (x) nuclear ordering; the
    carriers are the |0>_e <-> |-1>_e transition frequencies with the
    nuclear spin in |1>_n resp. |0>_n (magnitudes, rad/us).
    """
    d, q, a = p.zero_field_splitting, p.quadrupole, p.hyperfine
    we, wn = p.omega_e, p.omega_n
    i2, sz = PAULI_1Q[0], PAULI_1Q[3]
    h0 = math.pi * (
        -(d - we - a / 2.0) * np.kron(sz, i2)
        + (q + wn - a / 2.0) * np.kron(i2, sz)
        + (a / 2.0) * np.kron(sz, sz)
    )
    w_mw1 = abs(2.0 * math.pi * (d - we - a))
    w_mw2 = abs(2.0 * math.pi * (d - we))
    return h0, (w_mw1, w_mw2)


@dataclass
class PulseProgram:
    """Per-node drive parameters of the two selective MW pulses.

    ``freq1``/``freq2`` are the instantaneous angular frequencies
    (rad/us); their offsets from the carriers are +-2 A4(t).  ``phase``
    is the shared phase phi(t) (drive 1 runs at -phi, drive 2 at +phi),
    unwrapped to a continuous branch.
    """

    grid: TimeGrid
    omega_rabi: np.ndarray  # Omega(t), MHz, >= 0
    phase: np.ndarray  # phi(t), rad, continuous
    freq1: np.ndarray  # rad/us
    freq2: np.ndarray  # rad/us
    carriers: tuple[float, float]  # (omega_MW1, omega_MW2), rad/us


def synthesize(a: ASeries, carriers: tuple[float, float]) -> PulseProgram:
    """Drive parameters realizing the A-form Hamiltonian.

    pi Omega(t) = sqrt(A1^2 + A3^2), phi(t) = atan2(A3, A1) (branch-safe,
    unlike a plain arctan of the ratio, which breaks the reconstruction
    when A1 < 0), and the frequencies track the carriers with the
    +-2 A4(t) offsets.
    """
    a1, _, a3, a4 = a.a.T
    if not np.all(np.isfinite(a.a)):
        raise ValueError("A-series contains non-finite values")
    omega = np.hypot(a1, a3) / math.pi
    phase = np.unwrap(np.arctan2(a3, a1))
    w1, w2 = carriers
    return PulseProgram(
        grid=a.grid,
        omega_rabi=omega,
        phase=phase,
        freq1=w1 + 2.0 * a4,
        freq2=w2 - 2.0 * a4,
        carriers=(w1, w2),
    )


def rotating_frame_check(prog: PulseProgram, a: ASeries) -> float:
    """Max spectral-norm residual of the rotating-frame reconstruction.

    The program rebuilds pi Omega cos(phi) sx x I + A2 I x sz +
    pi Omega sin(phi) sy x sz + A4 sz x sz.  A2 and A4 are copied, so the
    residual is d1 sx x I + d3 sy x sz with d1 = pi Omega cos(phi) - A1 and
    d3 = pi Omega sin(phi) - A3; the two terms anticommute, so the
    residual squares to (d1^2 + d3^2) I and its spectral norm is
    hypot(d1, d3).
    """
    a1, _, a3, _ = a.a.T
    piom = math.pi * prog.omega_rabi
    d1 = piom * np.cos(prog.phase) - a1
    d3 = piom * np.sin(prog.phase) - a3
    return float(np.max(np.hypot(d1, d3)))


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
    integrals that define the frame.
    """
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

    a2 = a.a[:, 1]
    a4 = a.a[:, 3]
    # Cumulative integrals of A4 and A2 on the fine grid (trapezoid).
    a4_f = np.interp(ts, t_nodes, a4)
    a2_f = np.interp(ts, t_nodes, a2)
    int_a4 = np.concatenate([[0.0], np.cumsum((a4_f[1:] + a4_f[:-1]) / 2.0 * h)])
    int_a2 = np.concatenate([[0.0], np.cumsum((a2_f[1:] + a2_f[:-1]) / 2.0 * h)])

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
        steps = block_diag(unitary_2x2(blocks, h))
        states[start : stop + 1] = ordered_product(steps, states[start])

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

    p0, succ = _postselect_batch(states)
    return Trajectory(grid=grid_fine, states=states, p0=p0, success_prob=succ)
