"""Two-qubit Pauli product basis codec and A/B coefficient extraction.

Index order is (I, x, y, z) for both factors, system factor first, so a
coefficient table ``c[..., i, j]`` multiplies ``sigma_i (x) sigma_j``.
The codec works on whole stacks of shape (..., 4, 4).  For the dilated
Hamiltonians produced from the PT family only four coefficients survive:
A1 (x,I), A2 (I,z), A3 (y,z) and A4 (z,z); the complementary four of the
general expansion are reported as B diagnostics.
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
    "pauli_decompose",
    "assemble",
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

# (16, 4, 4) stack of sigma_i (x) sigma_j, row-major in (i, j).
_BASIS = np.stack(
    [np.kron(PAULI_1Q[i], PAULI_1Q[j]) for i in range(4) for j in range(4)]
)

# A/B slots of the coefficient table as (i indices, j indices).
_A_SLOTS = ([1, 0, 2, 3], [0, 3, 3, 3])  # (x,I), (I,z), (y,z), (z,z)
_B_SLOTS = ([0, 2, 3, 1], [0, 0, 0, 3])  # (I,I), (y,I), (z,I), (x,z)

# Largest imaginary Pauli coefficient a Hermitian operator may carry.
_HERM_TOL = 1e-9


class BNonVanishing(UserWarning):
    """The B coefficients do not vanish: H_s is outside the reduced family."""


def _check_shape(x: np.ndarray, what: str) -> None:
    if x.shape[-2:] != (4, 4):
        raise ValueError(f"expected {what} of shape (..., 4, 4), got shape {x.shape}")


def pauli_decompose(op: np.ndarray) -> np.ndarray:
    """Real tables c[..., i, j] = Re Tr[(sigma_i x sigma_j) O] / 4 of Hermitian O.

    ``op`` is one 4x4 operator or a stack (..., 4, 4).  Raises NotHermitian
    when any coefficient of any operator carries an imaginary part larger
    than ``_HERM_TOL``.
    """
    op = np.asarray(op, dtype=complex)
    _check_shape(op, "operators")
    raw = np.einsum("kab,...ba->...k", _BASIS, op) / 4.0
    max_imag = float(np.max(np.abs(raw.imag), initial=0.0))
    if max_imag > _HERM_TOL:
        raise NotHermitian(
            f"imaginary coefficient magnitude {max_imag:.3e} exceeds tol={_HERM_TOL}"
        )
    return raw.real.reshape(op.shape)


def assemble(coeffs: np.ndarray) -> np.ndarray:
    """Sum c[..., i, j] sigma_i x sigma_j; exact inverse of pauli_decompose."""
    c = np.asarray(coeffs, dtype=float)
    _check_shape(c, "coefficient tables")
    return np.einsum("...k,kab->...ab", c.reshape(*c.shape[:-2], 16).astype(complex), _BASIS)


@dataclass
class ASeries:
    """A_i(t) drive coefficients plus the B_i(t) diagnostics over a grid."""

    grid: TimeGrid
    a: np.ndarray  # (n_nodes, 4): A1, A2, A3, A4
    b: np.ndarray  # (n_nodes, 4): B1, B2, B3, B4


def extract_a_series(hsa: OperatorSeries) -> ASeries:
    """Pauli-decompose a whole H_sa series into A/B trajectories.

    Warns (BNonVanishing) when max|B| exceeds 1e-6 max|A|, which signals
    an H_s outside the family for which the four-term reduction holds.
    """
    c = pauli_decompose(hsa.data)
    a = c[(..., *_A_SLOTS)]
    b = c[(..., *_B_SLOTS)]
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
