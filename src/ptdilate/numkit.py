"""Dense complex linear-algebra kernels shared by the dilation pipeline.

Everything here operates on small (dim <= 4 in practice) dense complex
matrices.  Neither the dilated H_sa nor the NV lab-frame Hamiltonian
couples the two values of its second tensor factor, so both are carried
as their two 2x2 blocks, stacked on axis -3.  ``unitary_2x2`` exponentiates
a whole stack of 2x2 Hermitian blocks in closed form, ``block_diag`` is
the one place that places the blocks into 4x4 operators, and
``ordered_product`` is the one serial step loop of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotHermitian",
    "TimeGrid",
    "OperatorSeries",
    "unitary_2x2",
    "block_diag",
    "ordered_product",
]


class NotHermitian(ValueError):
    """Input failed a Hermiticity check at the requested tolerance."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time discretization of ``[t0, t1]`` with ``n_nodes`` nodes."""

    t0: float
    t1: float
    n_nodes: int

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if not self.t1 > self.t0:
            raise ValueError(f"need t1 > t0, got t0={self.t0}, t1={self.t1}")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / (self.n_nodes - 1)

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_nodes)


@dataclass
class OperatorSeries:
    """A per-node sequence of operators (or state vectors) over a TimeGrid.

    ``data`` has shape ``(n_nodes, ...)``: ``(n_nodes, d, d)`` for operators
    and ``(n_nodes, 2, 2, 2)`` for the two 2x2 blocks of a block-diagonal
    4x4 operator (see ``block_diag``).
    """

    grid: TimeGrid
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"series length {self.data.shape[0]} != grid nodes {self.grid.n_nodes}"
            )


def unitary_2x2(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt h) for a Hermitian stack ``h`` of shape ``(..., 2, 2)``.

    With h = a I + z sz + Re(x) sx + Im(x) sy and w = hypot(z, |x|), the
    closed form is e^{-i dt a} (cos(dt w) I - i sin(dt w)/w (h - a I));
    sin(dt w)/w is taken as dt sinc(dt w / pi), so w = 0 is exact.
    """
    h = np.asarray(h, dtype=complex)
    a = (h[..., 0, 0].real + h[..., 1, 1].real) / 2.0
    z = (h[..., 0, 0].real - h[..., 1, 1].real) / 2.0
    w = np.hypot(z, np.abs(h[..., 1, 0]))
    phase = np.exp(-1j * dt * a)
    # U = c I + s (h - a I), where h - a I = [[z, h01], [h10, -z]].
    c = phase * np.cos(dt * w)
    s = (-1j * dt) * phase * np.sinc(dt * w / np.pi)
    u = np.empty(h.shape, dtype=complex)
    u[..., 0, 0] = c + s * z
    u[..., 1, 1] = c - s * z
    u[..., 0, 1] = s * h[..., 0, 1]
    u[..., 1, 0] = s * h[..., 1, 0]
    return u


def block_diag(blocks: np.ndarray) -> np.ndarray:
    """(..., 4, 4) operators from their two (..., 2, 2) blocks on axis -3.

    Block k sits on levels (k, k + 2): with the system (electron) factor
    first, those are the levels where the second tensor factor is k.
    """
    blocks = np.asarray(blocks)
    if blocks.shape[-3:] != (2, 2, 2):
        raise ValueError(f"expected blocks of shape (..., 2, 2, 2), got shape {blocks.shape}")
    out = np.zeros((*blocks.shape[:-3], 4, 4), dtype=blocks.dtype)
    for k in (0, 1):
        out[..., k::2, k::2] = blocks[..., k, :, :]
    return out


def ordered_product(steps: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Step product: ``out[0] = init`` and ``out[k + 1] = steps[k] @ out[k]``.

    ``init`` is a matrix or a state vector; the result stacks
    ``len(steps) + 1`` arrays of its shape.
    """
    cur = np.asarray(init, dtype=complex)
    out = np.empty((len(steps) + 1, *cur.shape), dtype=complex)
    out[0] = cur
    for k, step in enumerate(steps):
        cur = step @ cur
        out[k + 1] = cur
    return out
