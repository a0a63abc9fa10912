"""Unitary evolution under the dilated Hamiltonian with ancilla post-selection.

State ordering is system (x) ancilla with basis
(|0>|0>, |0>|1>, |1>|0>, |1>|1>).  Projecting the ancilla onto |-> and
renormalizing recovers the non-unitary system trajectory; ``p0`` is the
population of the system |0> state of that conditional trajectory.  H_sa
arrives as its two ancilla sigma_z blocks, so every step is their two
closed-form 2x2 exponentials, placed by ``numkit.block_diag``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import ANCILLA_MINUS, ANCILLA_PLUS, DilationConfig, DilationResult, dilate
from .numkit import OperatorSeries, TimeGrid, block_diag, ordered_product, unitary_2x2
from .ptmodel import PTParams, pt_hamiltonian

__all__ = [
    "ZeroBranch",
    "Trajectory",
    "prepare_initial",
    "evolve_dilated",
    "branch_populations",
    "simulate_pt",
]


class ZeroBranch(RuntimeError):
    """Post-selection impossible: the |-> branch has (numerically) no weight."""


@dataclass
class Trajectory:
    grid: TimeGrid
    states: np.ndarray  # (n_nodes, 4) complex
    p0: np.ndarray  # (n_nodes,) post-selected |0> population
    success_prob: np.ndarray  # (n_nodes,) |-> branch weight


def prepare_initial(psi0: np.ndarray, eta0: float) -> np.ndarray:
    """Amplitudes (4,) of (|psi0>|-> + eta0 |psi0>|+>) / sqrt(1 + eta0^2)."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (2,):
        raise ValueError(f"psi0 must be a system 2-vector, got shape {psi0.shape}")
    if not np.isclose(np.linalg.norm(psi0), 1.0, atol=1e-12):
        raise ValueError("psi0 must be a unit vector")
    if eta0 < 0:
        raise ValueError(f"eta0 must be >= 0, got {eta0}")
    anc = (ANCILLA_MINUS + eta0 * ANCILLA_PLUS) / np.sqrt(1.0 + eta0**2)
    return np.kron(psi0, anc)


def _postselect_batch(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p0, success probability) per state of a stack.

    Raises ZeroBranch when the |-> branch of any state has (numerically)
    no weight, or a NaN weight.
    """
    pops = branch_populations(states)
    w = pops[..., 0] + pops[..., 2]  # the |-> levels |0 1> and |-1 1>
    if not np.min(w) >= 1e-60:  # a NaN weight fails too
        raise ZeroBranch("post-selected |-> branch weight below 1e-60 or NaN")
    return pops[..., 0] / w, w


def evolve_dilated(hsa: OperatorSeries, initial: np.ndarray) -> Trajectory:
    """Propagate by per-interval unitaries exp(-i dt H_sa(midpoint)).

    ``hsa`` holds the two ancilla sigma_z blocks of H_sa, as ``dilate``
    stores them, and ``initial`` is the (4,) amplitude vector of
    ``prepare_initial``.  The midpoint Hamiltonian of each interval is the
    mean of its two nodes (linear interpolation of H_sa), so the error is
    O(dt^2) and only more grid nodes reduce it.  Each step is the two
    closed-form 2x2 block exponentials.
    """
    grid = hsa.grid
    hmid = (hsa.data[:-1] + hsa.data[1:]) / 2.0
    states = ordered_product(block_diag(unitary_2x2(hmid, grid.dt)), initial)
    p0, succ = _postselect_batch(states)
    return Trajectory(grid=grid, states=states, p0=p0, success_prob=succ)


def branch_populations(states: np.ndarray) -> np.ndarray:
    """Populations of the four readout levels for a state or stack.

    The readout basis maps |-> -> |1>_n and |+> -> |0>_n, so the level
    order (|0 1>, |0 0>, |-1 1>, |-1 0>) corresponds to the amplitudes
    (<0,-|, <0,+|, <1,-|, <1,+|) of the dilated state.
    """
    states = np.asarray(states)
    resh = states.reshape(*states.shape[:-1], 2, 2)
    a_minus = resh @ ANCILLA_MINUS.conj()
    a_plus = resh @ ANCILLA_PLUS.conj()
    pops = np.stack(
        [
            np.abs(a_minus[..., 0]) ** 2,
            np.abs(a_plus[..., 0]) ** 2,
            np.abs(a_minus[..., 1]) ** 2,
            np.abs(a_plus[..., 1]) ** 2,
        ],
        axis=-1,
    )
    return pops / np.sum(np.abs(states) ** 2, axis=-1, keepdims=True)


def simulate_pt(
    r: float | PTParams,
    grid: TimeGrid,
    margin: float = 0.1,
    psi0: np.ndarray | None = None,
) -> tuple[Trajectory, DilationResult]:
    """Dilate the PT Hamiltonian at strength r and evolve from |psi0>|->...

    Convenience wrapper: runs the dilation pipeline, prepares the initial
    state with eta0 = sqrt(m0 - 1) (scalar M(0)), and propagates with
    ``evolve_dilated``, one step per grid interval, so the grid alone sets
    the accuracy.  Returns the trajectory together with the dilation it used.
    """
    h_s = pt_hamiltonian(r)
    result = dilate(h_s, DilationConfig(grid=grid, margin=margin))
    if psi0 is None:
        psi0 = np.array([1.0, 0.0], dtype=complex)
    initial = prepare_initial(psi0, np.sqrt(result.m0 - 1.0))
    traj = evolve_dilated(result.hsa_series, initial)
    return traj, result
