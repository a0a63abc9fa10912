"""NV-center pulse synthesis for the dilated Hamiltonian.

Maps the A-coefficient form of H_sa onto the two-qubit subspace
{|0>_e|1>_n, |0>_e|0>_n, |-1>_e|1>_n, |-1>_e|0>_n} of the NV electron +
14N nuclear spin system: static subspace Hamiltonian, carrier
frequencies of the two selective MW transitions, Rabi/phase/frequency
trajectories of the drives, and a lab-frame integrator (SU(2) steps and a
back-rotation phase multiplied from tabled unit numbers) that audits the
rotating-wave approximation.

Units: frequencies in NVParams are MHz (cycles/us); Hamiltonians and
carrier/drive angular frequencies are rad/us; time is us (matching the
dimensionless time unit of the PT model at unit coupling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import TimeGrid
from .pauli import PAULI_1Q, ASeries
from .simulator import Trajectory, _evolve

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
_ANCHOR_NODES = 1024  # fine nodes per anchor of the lab audit's phase table


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
    integrals that define the frame.  ``grid_fine`` must lie inside the
    program's grid; the drives are not extrapolated past it.

    The traceless blocks' (z, drive) parts and the back-rotation phase run
    chunk by chunk through ``simulator._evolve``, the loop of
    ``evolve_dilated``, with the two A-integrals carried in its chunk order
    and each chunk's fine times built for it: only the returned ``p0`` and
    ``success_prob`` span the fine grid (its ``states`` is None), and
    ``ZeroBranch`` raises at the first chunk holding an empty branch.
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
    h = grid_fine.dt
    # H0 is diagonal and drive k flips the electron with the nuclear spin on
    # level k (|1>_n, then |0>_n): one 2x2 block per nuclear level.  Block k
    # drops its trace a_k, leaving z_k sz + drive sx, so its exponential has
    # no scalar phase whose rounding would drift the norm step by step;
    # e^{-i a_k t} is folded into the back-rotation below.
    h0_diag = np.real(np.diag(h0))
    z = (h0_diag[:2] - h0_diag[2:]) / 2.0  # (h0[k, k] - h0[k + 2, k + 2]) / 2
    # Back to the rotating frame: the exponent of U_rot is diagonal and real,
    # z_rot t - int_a2 (I x sz) - int_a4 (sz x sz), H0 entering less the dropped
    # traces.  e^{i z_rot t} at node qB + m is the anchor e^{i z_rot t_qB} times
    # table[m] = e^{i z_rot m h}: only anchors take cos/sin of |z t| (~1e4 rad),
    # and they sit at fixed nodes, so no phase depends on where a chunk starts.
    z_rot = np.concatenate([z, -z])
    table = np.exp(1j * np.outer(z_rot, np.arange(_ANCHOR_NODES) * h))
    w1, w2 = prog.carriers
    ints = np.zeros((2, 1))  # int_a2, int_a4 at the chunk's nodes; starts at 0

    def lab_blocks(i: int, j: int) -> tuple[None, np.ndarray, np.ndarray]:
        """Parts (a, z, x) of the two traceless lab blocks of steps i .. j - 1, after
        the A2/A4 trapezoid integrals at nodes i .. j, summed on from the last chunk's."""
        nonlocal ints
        t = grid_fine.node_times(i, j + 1)
        f = np.stack([np.interp(t, t_nodes, a.a[:, 1]), np.interp(t, t_nodes, a.a[:, 3])])
        ints = np.cumsum(np.concatenate([ints[:, -1:], (f[:, 1:] + f[:, :-1]) / 2.0 * h], 1), 1)
        mids = t[:-1] + h / 2.0
        int_a4_mid = np.interp(mids, t, ints[1])
        ph_mid = np.interp(mids, t_nodes, prog.phase)
        # Cosine arguments of the two drives, drive 1 at -phi and drive 2 at +phi.
        angles = np.stack(
            [w1 * mids + 2.0 * int_a4_mid - ph_mid, w2 * mids - 2.0 * int_a4_mid + ph_mid],
            axis=-1,
        )
        om_mid = np.interp(mids, t_nodes, prog.omega_rabi)
        return None, z, 2.0 * math.pi * om_mid[:, None] * np.cos(angles)

    def back_rotation(rows: slice) -> np.ndarray:
        """e^{i exponent} at the last ``lab_blocks``' nodes ``rows``: e^{i z_rot t} times
        (p, p*, q, q*), p = e^{-i (int_a2 + int_a4)} and q = e^{-i (int_a2 - int_a4)}."""
        first = rows.start - rows.start % _ANCHOR_NODES  # the anchor at or before rows.start
        anchors = np.exp(1j * np.outer(z_rot, grid_fine.node_times(first, rows.stop, _ANCHOR_NODES)))
        phase = (anchors[:, :, None] * table[:, None]).reshape(4, -1)
        phase = phase[:, rows.start - first : rows.stop - first]
        pq = np.exp(-1j * (ints[0] + ints[1] * np.array([[1.0], [-1.0]])))
        phase[::2] *= pq
        phase[1::2] *= pq.conj()
        return phase.T

    return _evolve(grid_fine, lab_blocks, initial, back_rotation)
