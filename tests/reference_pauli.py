"""Test-side reference oracle: the two-qubit Pauli product basis codec.

The package reads the A/B coefficients straight from the two ancilla
blocks of H_sa (``ptdilate.pauli.extract_a_series``).  This module keeps
the general codec over the 16 products sigma_i (x) sigma_j of whole 4x4
stacks, for the tests to compare against.  Index order is (I, x, y, z)
for both factors, system factor first, so a coefficient table
``c[..., i, j]`` multiplies ``sigma_i (x) sigma_j``.  Imported by the
tests; not itself a test module.
"""

import numpy as np

from ptdilate.numkit import NotHermitian
from ptdilate.pauli import PAULI_1Q

# (16, 4, 4) stack of sigma_i (x) sigma_j, row-major in (i, j).
_BASIS = np.stack(
    [np.kron(PAULI_1Q[i], PAULI_1Q[j]) for i in range(4) for j in range(4)]
)

# A/B slots of the coefficient table as (i indices, j indices).
_A_SLOTS = ([1, 0, 2, 3], [0, 3, 3, 3])  # (x,I), (I,z), (y,z), (z,z)
_B_SLOTS = ([0, 2, 3, 1], [0, 0, 0, 3])  # (I,I), (y,I), (z,I), (x,z)

# Largest imaginary Pauli coefficient a Hermitian operator may carry.
_HERM_TOL = 1e-9


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
