"""Two-qubit Pauli product basis codec and A/B coefficient extraction.

Index order is (I, x, y, z) for both factors, system factor first, so a
coefficient table ``c[i][j]`` multiplies ``sigma_i (x) sigma_j``.  For the
dilated Hamiltonians produced from the PT family only four coefficients
survive: A1 (x,I), A2 (I,z), A3 (y,z) and A4 (z,z); the complementary
four of the general expansion are reported as B diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numkit import NotHermitian, OperatorSeries, TimeGrid, write_csv

__all__ = [
    "PAULI_1Q",
    "PAULI_LABELS",
    "BNonVanishing",
    "PauliCoeffs",
    "ASeries",
    "pauli_decompose",
    "assemble",
    "extract_a_series",
]

PAULI_LABELS = "Ixyz"
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

# A/B slots in the (i, j) coefficient table.
_A_INDEX = [(1, 0), (0, 3), (2, 3), (3, 3)]  # (x,I), (I,z), (y,z), (z,z)
_B_INDEX = [(0, 0), (2, 0), (3, 0), (1, 3)]  # (I,I), (y,I), (z,I), (x,z)


class BNonVanishing(UserWarning):
    """The B coefficients do not vanish: H_s is outside the reduced family."""


@dataclass
class PauliCoeffs:
    """Real coefficient table c[i][j] over (I, x, y, z) x (I, x, y, z)."""

    c: np.ndarray  # (4, 4) real
    max_imag: float = 0.0  # residual imaginary part of the decomposition

    def __getitem__(self, labels: str) -> float:
        i, j = (PAULI_LABELS.index(ch) for ch in labels)
        return float(self.c[i, j])


def pauli_decompose(op: np.ndarray, tol: float = 1e-9) -> PauliCoeffs:
    """c[i][j] = Re Tr[(sigma_i x sigma_j) O] / 4 for Hermitian O.

    Raises NotHermitian when any coefficient carries an imaginary part
    larger than ``tol``.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (4, 4):
        raise ValueError(f"expected a 4x4 operator, got shape {op.shape}")
    raw = np.einsum("kab,ba->k", _BASIS, op) / 4.0
    max_imag = float(np.max(np.abs(raw.imag)))
    if max_imag > tol:
        raise NotHermitian(
            f"imaginary coefficient magnitude {max_imag:.3e} exceeds tol={tol}"
        )
    return PauliCoeffs(c=raw.real.reshape(4, 4).copy(), max_imag=max_imag)


def assemble(coeffs: PauliCoeffs | np.ndarray) -> np.ndarray:
    """Sum c[i][j] sigma_i x sigma_j; exact inverse of pauli_decompose."""
    c = coeffs.c if isinstance(coeffs, PauliCoeffs) else np.asarray(coeffs, float)
    return np.einsum("k,kab->ab", c.reshape(16).astype(complex), _BASIS)


@dataclass
class ASeries:
    """A_i(t) drive coefficients plus the B_i(t) diagnostics over a grid."""

    grid: TimeGrid
    a: np.ndarray  # (n_nodes, 4): A1, A2, A3, A4
    b: np.ndarray  # (n_nodes, 4): B1, B2, B3, B4

    def to_csv(self, fh) -> None:
        """Write header t,A1..A4,B1..B4 plus one row per node."""
        columns = ("t", "A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4")
        write_csv(fh, columns, np.column_stack([self.grid.times(), self.a, self.b]))


def extract_a_series(hsa: OperatorSeries, tol: float = 1e-9) -> ASeries:
    """Pauli-decompose every node of an H_sa series into A/B trajectories.

    Warns (BNonVanishing) when max|B| exceeds 1e-6 max|A|, which signals
    an H_s outside the family for which the four-term reduction holds.
    """
    n = len(hsa)
    a = np.empty((n, 4))
    b = np.empty((n, 4))
    for k in range(n):
        coeffs = pauli_decompose(hsa.data[k], tol=tol)
        a[k] = [coeffs.c[i, j] for i, j in _A_INDEX]
        b[k] = [coeffs.c[i, j] for i, j in _B_INDEX]
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


def assemble_a_form(a_row: np.ndarray) -> np.ndarray:
    """H_sa node from (A1, A2, A3, A4) alone, the reduced four-term form."""
    c = np.zeros((4, 4))
    for val, (i, j) in zip(np.asarray(a_row, float), _A_INDEX):
        c[i, j] = val
    return assemble(c)
