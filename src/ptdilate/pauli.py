"""Single-qubit Pauli basis and the A/B coefficients of the dilated H_sa.

Index order is (I, x, y, z).  H_sa = Lambda x I + Gamma x sigma_z
arrives as its two ancilla sigma_z blocks Lambda +- Gamma, so its
two-qubit coefficient of sigma_i x I is the sigma_i coefficient of
Lambda and that of sigma_i x sigma_z the one of Gamma; no other
coefficient can be nonzero.  For the dilated Hamiltonians produced from
the PT family only four of these survive: A1 (x,I), A2 (I,z), A3 (y,z)
and A4 (z,z); the complementary four are reported as B diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numkit import NotHermitian, OperatorSeries, TimeGrid

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

# Largest imaginary Pauli coefficient a Hermitian operator may carry.
_HERM_TOL = 1e-9


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

    ``hsa.data`` has shape (n_nodes, 2, 2, 2), the blocks Lambda + Gamma
    and Lambda - Gamma.  A1 = x(Lambda) and A2, A3, A4 = I, y, z of Gamma;
    B1..B4 = I, y, z of Lambda and x(Gamma).  Raises NotHermitian when any
    coefficient carries an imaginary part larger than ``_HERM_TOL``, and
    warns (BNonVanishing) when max|B| exceeds 1e-6 max|A|, which signals
    an H_s outside the family for which the four-term reduction holds.
    """
    blocks = np.asarray(hsa.data, dtype=complex)
    if blocks.shape[-3:] != (2, 2, 2):
        raise ValueError(f"expected H_sa blocks of shape (..., 2, 2, 2), got shape {blocks.shape}")
    lam = (blocks[..., 0, :, :] + blocks[..., 1, :, :]) / 2.0
    gam = (blocks[..., 0, :, :] - blocks[..., 1, :, :]) / 2.0
    # c[..., 0, i] = Tr(sigma_i Lambda) / 2 and c[..., 1, i] = Tr(sigma_i Gamma) / 2.
    c = np.einsum("iab,...kba->...ki", PAULI_1Q, np.stack([lam, gam], axis=-3)) / 2.0
    max_imag = float(np.max(np.abs(c.imag), initial=0.0))
    if max_imag > _HERM_TOL:
        raise NotHermitian(
            f"imaginary coefficient magnitude {max_imag:.3e} exceeds tol={_HERM_TOL}"
        )
    a = c.real[..., [0, 1, 1, 1], [1, 0, 2, 3]]  # x(Lambda); I, y, z of Gamma
    b = c.real[..., [0, 0, 0, 1], [0, 2, 3, 1]]  # I, y, z of Lambda; x(Gamma)
    amax = float(np.max(np.abs(a)))
    bmax = float(np.max(np.abs(b)))
    if bmax > 1e-6 * max(amax, 1e-300):
        warnings.warn(
            f"B coefficients do not vanish (max|B| = {bmax:.3e}, "
            f"max|A| = {amax:.3e})",
            BNonVanishing,
            stacklevel=2,
        )
    return ASeries(grid=hsa.grid, a=a, b=b)
