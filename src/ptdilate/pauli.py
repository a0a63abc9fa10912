"""Single-qubit Pauli basis and the A/B coefficients of the dilated H_sa.

Index order is (I, x, y, z).  H_sa = Lambda x I + Gamma x sigma_z
arrives as the Pauli coefficients of its two ancilla sigma_z blocks
Lambda +- Gamma, so Lambda and Gamma are their half sum and half
difference.  The two-qubit coefficient of sigma_i x I is the sigma_i
coefficient of Lambda, that of sigma_i x sigma_z the one of Gamma, and no
other can be nonzero.  For the dilated Hamiltonians produced from the PT
family only four of these eight survive: A1 (x,I), A2 (I,z), A3 (y,z) and
A4 (z,z); the complementary four are reported as B diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numkit import OperatorSeries, TimeGrid

__all__ = [
    "PAULI_1Q",
    "BNonVanishing",
    "ASeries",
    "extract_a_series",
]

PAULI_1Q = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


class BNonVanishing(UserWarning):
    """The B coefficients do not vanish: H_s is outside the reduced family."""


@dataclass
class ASeries:
    """A_i(t) drive coefficients plus the B_i(t) diagnostics over a grid."""

    grid: TimeGrid
    a: np.ndarray  # (n_nodes, 4): A1, A2, A3, A4
    b: np.ndarray  # (n_nodes, 4): B1, B2, B3, B4


def extract_a_series(hsa: OperatorSeries) -> ASeries:
    """A/B trajectories of an H_sa series held as its two ancilla blocks.

    ``hsa.data`` has shape (n_nodes, 2, 4): the real Pauli coefficients
    (I, x, y, z) of the blocks Lambda + Gamma and Lambda - Gamma, as
    ``dilate`` writes them, so the blocks are Hermitian by format.
    A1 = x(Lambda) and A2, A3, A4 = I, y, z of Gamma; B1..B4 = I, y, z of
    Lambda and x(Gamma).  Raises ValueError for another shape or a complex
    dtype, and warns (BNonVanishing) when max|B| exceeds 1e-6 max|A|, which
    signals an H_s outside the family for which the four-term reduction
    holds.
    """
    blocks = np.asarray(hsa.data)
    if blocks.shape[-2:] != (2, 4) or np.iscomplexobj(blocks):
        raise ValueError(
            f"expected real H_sa block coefficients (..., 2, 4), "
            f"got {blocks.dtype} of shape {blocks.shape}"
        )
    # c[..., 0, i] and c[..., 1, i]: the sigma_i coefficients of Lambda and Gamma.
    b0, b1 = blocks[..., 0, :], blocks[..., 1, :]
    c = np.stack([b0 + b1, b0 - b1], axis=-2) / 2.0
    a = c[..., [0, 1, 1, 1], [1, 0, 2, 3]]  # x(Lambda); I, y, z of Gamma
    b = c[..., [0, 0, 0, 1], [0, 2, 3, 1]]  # I, y, z of Lambda; x(Gamma)
    amax = float(np.max(np.abs(a)))
    bmax = float(np.max(np.abs(b)))
    if bmax > 1e-6 * max(amax, 1e-300):
        msg = f"B coefficients do not vanish (max|B| = {bmax:.3e}, max|A| = {amax:.3e})"
        warnings.warn(msg, BNonVanishing, stacklevel=2)
    return ASeries(grid=hsa.grid, a=a, b=b)
