"""Unitary evolution under the dilated Hamiltonian with ancilla post-selection.

State ordering is system (x) ancilla with basis
(|0>|0>, |0>|1>, |1>|0>, |1>|1>).  Projecting the ancilla onto |-> and
renormalizing recovers the non-unitary system trajectory; ``p0`` is the
population of the system |0> state of that conditional trajectory.  H_sa
arrives as the Pauli coefficients of its two ancilla sigma_z blocks; block
k chains the amplitudes ``state.reshape(2, 2)[:, k]`` by SU(2) pairs
(``numkit.chain_su2``) and takes its summed phase per node.  ``_evolve``,
the one chunked evolution loop, takes one function from its caller that
gives each chunk's traceless parts (z, x) and node phase; it also runs the
lab audit ``pulse.simulate_lab_frame``, which keeps no states.  Past one
chunk a helper thread builds the next chunk's steps and phase while the
caller chains and post-selects.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .dilation import ANCILLA_MINUS, ANCILLA_PLUS, DilationConfig, DilationResult, dilate
from .numkit import OperatorSeries, TimeGrid, chain_su2, su2_step
from .ptmodel import pt_hamiltonian

__all__ = [
    "ZeroBranch",
    "Trajectory",
    "prepare_initial",
    "evolve_dilated",
    "branch_populations",
    "simulate_pt",
]


# Steps per chunk of ``_evolve``; only the returned trajectory spans the grid
# (without its states for the lab audit), and two chunks are in flight at once.
_STEPS_PER_CHUNK = 8192


class ZeroBranch(RuntimeError):
    """Post-selection impossible: the |-> branch has (numerically) no weight."""


@dataclass
class Trajectory:
    """A post-selected run on ``grid``: ``states`` is None when the run kept
    only ``p0`` and ``success_prob`` (the lab audit, ``pulse.simulate_lab_frame``)."""

    grid: TimeGrid
    states: np.ndarray | None  # (n_nodes, 4) complex
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


def _on_bra(states: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """|(<s| x <bra|) state|^2 for s = 0, 1 on the last axis, unnormalized
    (written out elementwise: ``@`` pays a per-vector dispatch on long stacks)."""
    resh = states.reshape(*states.shape[:-1], 2, 2)
    return np.abs(resh[..., 0] * bra[0] + resh[..., 1] * bra[1]) ** 2


def _norm_sq(states: np.ndarray) -> np.ndarray:
    """Squared norms (..., 1) of (..., 4) states by column adds, bit for bit np.sum's order."""
    a = np.abs(states) ** 2
    return (((a[..., 0] + a[..., 1]) + a[..., 2]) + a[..., 3])[..., None]


def _postselect_batch(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p0, success probability) per state of a stack, from its two |-> populations.

    Raises ZeroBranch when the |-> branch of any state has (numerically)
    no weight, or a NaN weight.  The floor is 1e-60, not the 1e-12 of
    ``readout.p0_from_populations``: at large m0 valid runs post-select
    from weights near 1e-14 and still match ``analytic_p0``.
    """
    pop = _on_bra(states, ANCILLA_MINUS.conj()) / _norm_sq(states)
    w = pop[..., 0] + pop[..., 1]  # the |-> levels |0 1> and |-1 1>
    if not np.min(w) >= 1e-60:  # a NaN weight fails too
        raise ZeroBranch("post-selected |-> branch weight below 1e-60 or NaN")
    return pop[..., 0] / w, w


def _evolve(grid: TimeGrid, chunk, initial: np.ndarray, states=None) -> Trajectory:
    """Chain the 2x2 steps on ``grid`` from ``initial`` and post-select, per chunk.

    ``chunk(i, j)`` returns the parts ``(z, x)`` of the traceless blocks
    z sz + Re(x) sx + Im(x) sy of steps i .. j - 1, broadcasting to (j - i, 2),
    and the complex (j - i + 1, 4) phase of nodes i .. j.  It is called once
    per chunk, in chunk order, so it may carry sums.  A chunk's carry-free
    half calls it and builds the SU(2) steps; its carried half chains them
    on from the last chunk's un-rotated end state, applies the phase and
    post-selects.  Past one chunk, a helper thread builds chunk k + 1's
    carry-free half, under the caller's floating-point error state, while
    chunk k's carried half runs, so one extra chunk is in flight.
    ``ZeroBranch`` raises at the first empty branch.  Each chunk's rotated
    states land in ``states``, a caller's (n_nodes, 4) array, if given, and
    the trajectory keeps it; else they live in one reused
    (_STEPS_PER_CHUNK + 1, 4) buffer and the trajectory's ``states`` is None.
    """
    n = grid.n_nodes
    p0, succ = np.empty(n), np.empty(n)
    buf = np.empty((min(_STEPS_PER_CHUNK, n - 1) + 1, 4), dtype=complex) if states is None else None
    starts = range(0, n - 1, _STEPS_PER_CHUNK)
    errstate = np.geterr()

    def carry_free(start):
        """Rows, steps and phase of the chunk from node ``start``, the last one's end."""
        with np.errstate(**errstate):
            stop = min(start + _STEPS_PER_CHUNK, n - 1)
            z, x, phase = chunk(start, stop)
            return slice(start, stop + 1), su2_step(z, x, grid.dt), phase

    carry = np.reshape(initial, (2, 2)).T  # block k's state is column k
    part = carry_free(starts[0])
    # Leaving the block joins the helper, also when a chunk raises.
    with ThreadPoolExecutor(max_workers=1) if len(starts) > 1 else nullcontext() as helper:
        for nxt in [*starts[1:], None]:
            rows, pairs, phase = part
            ahead = None if nxt is None else helper.submit(carry_free, nxt)
            out = buf[: len(pairs) + 1] if states is None else states[rows]
            chain = chain_su2(pairs, carry, out.reshape(-1, 2, 2).swapaxes(-1, -2))
            del part, pairs
            carry = chain[-1].copy()
            np.multiply(phase, out, out=out)
            del chain, phase
            p0[rows], succ[rows] = _postselect_batch(out)
            part = None if ahead is None else ahead.result()
    return Trajectory(grid=grid, states=states, p0=p0, success_prob=succ)


def evolve_dilated(hsa: OperatorSeries, initial: np.ndarray) -> Trajectory:
    """Propagate by per-interval unitaries exp(-i dt H_sa(midpoint)).

    ``hsa`` holds the real Pauli coefficients (I, x, y, z) of the two
    ancilla sigma_z blocks of H_sa, as ``dilate`` stores them, and
    ``initial`` is the (4,) amplitude vector of ``prepare_initial``.  The
    midpoint Hamiltonian of each interval is the mean of its two nodes
    (linear interpolation of H_sa), so the error is O(dt^2) and only more
    grid nodes reduce it.  Each chunk passes ``_evolve`` the mean of the
    nodes' parts (a, z, x) = (I, z, x + i y) as (z, x) and the phase of each
    block's running angle -dt sum(a), carried from chunk to chunk.
    """
    turned = np.zeros((1, 2))  # the sum of a per block up to the chunk's first node

    def chunk(i, j):
        nonlocal turned
        c = hsa.data[i : j + 1]
        x = np.empty(c.shape[:-1], dtype=complex)
        x.real, x.imag = c[..., 1], c[..., 2]
        a, z, x = ((f[:-1] + f[1:]) / 2.0 for f in (c[..., 0], c[..., 3], x))
        # One sequential sum from the first step, so chunks keep it bitwise.
        sums = np.cumsum(np.concatenate([turned, a]), axis=0)
        turned = sums[-1:].copy()
        angle = sums * -hsa.grid.dt  # block k's, for columns k and k + 2
        phase = np.empty(angle.shape, dtype=complex)
        np.cos(angle, out=phase.real)
        np.sin(angle, out=phase.imag)
        return z, x, np.tile(phase, 2)

    states = np.empty((hsa.grid.n_nodes, 4), dtype=complex)
    return _evolve(hsa.grid, chunk, initial, states=states)


def branch_populations(states: np.ndarray) -> np.ndarray:
    """Populations of the four readout levels for a state or stack.

    The readout basis maps |-> -> |1>_n and |+> -> |0>_n, so the level
    order (|0 1>, |0 0>, |-1 1>, |-1 0>) corresponds to the amplitudes
    (<0,-|, <0,+|, <1,-|, <1,+|) of the dilated state.
    """
    states = np.asarray(states)
    # Level 2 s + b projects system level s onto ancilla bra b.
    pops = np.stack([_on_bra(states, bra.conj()) for bra in (ANCILLA_MINUS, ANCILLA_PLUS)], -1)
    return pops.reshape(states.shape) / _norm_sq(states)


def simulate_pt(r: float, grid: TimeGrid) -> tuple[Trajectory, DilationResult]:
    """Dilate the PT Hamiltonian at strength r and evolve from |0>|-> ...

    Convenience wrapper: runs the dilation pipeline, prepares the initial
    state with eta0 = sqrt(m0 - 1) (scalar M(0)), and propagates with
    ``evolve_dilated``, one step per grid interval, so the grid alone sets
    the accuracy.  Returns the trajectory together with the dilation it used.
    The state is |0> at ``grid.t0``, so ``analytic_p0(r, grid.times() - grid.t0)``
    is its oracle.
    Another initial state takes the same steps by hand: ``dilate``, then
    ``prepare_initial(psi0, sqrt(m0 - 1))``, then ``evolve_dilated``.
    """
    result = dilate(pt_hamiltonian(r), DilationConfig(grid))
    initial = prepare_initial(np.array([1.0, 0.0], dtype=complex), np.sqrt(result.m0 - 1.0))
    traj = evolve_dilated(result.hsa_series, initial)
    return traj, result
