"""Test-side reference oracle: the Pauli codecs of H_sa and of 4x4 operators.

``ptdilate.dilation.dilate`` stores H_sa as the real Pauli coefficients
(I, x, y, z) of its two ancilla sigma_z blocks, shape (..., 2, 4), and the
package reads the A/B coefficients straight from them
(``ptdilate.pauli.extract_a_series``).  ``hsa_blocks`` and ``hsa_coeffs``
convert between those coefficients and the two 2x2 blocks, shape
(..., 2, 2, 2), for the tests that compare or build blocks.  This module
also keeps the general codec over the 16 products sigma_i (x) sigma_j of
whole 4x4 stacks, for the tests to compare against.  Index order is
(I, x, y, z) for both factors, system factor first, so a coefficient
table ``c[..., i, j]`` multiplies ``sigma_i (x) sigma_j``.  Imported by
the tests; not itself a test module.
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


def hsa_blocks(coeffs: np.ndarray) -> np.ndarray:
    """(..., 2, 2, 2) blocks sum_i c[..., k, i] sigma_i of (..., 2, 4) coefficients.

    Real coefficients give [[I + z, x - i y], [x + i y, I - z]], Hermitian
    bit for bit."""
    c = np.asarray(coeffs)
    if c.shape[-2:] != (2, 4):
        raise ValueError(f"expected coefficients of shape (..., 2, 4), got shape {c.shape}")
    out = np.empty(c.shape[:-1] + (2, 2), dtype=complex)
    i, x, y, z = np.moveaxis(c, -1, 0)
    out[..., 0, 0], out[..., 1, 1] = i + z, i - z
    out[..., 0, 1], out[..., 1, 0] = x - 1j * y, x + 1j * y
    return out


def hsa_coeffs(blocks: np.ndarray) -> np.ndarray:
    """(..., 2, 4) coefficients c_i = tr(sigma_i B) / 2 of (..., 2, 2, 2) blocks.

    Complex: a non-Hermitian block gives coefficients with an imaginary part."""
    b = np.asarray(blocks, dtype=complex)
    if b.shape[-3:] != (2, 2, 2):
        raise ValueError(f"expected blocks of shape (..., 2, 2, 2), got shape {b.shape}")
    return np.einsum("iab,...ba->...i", PAULI_1Q, b) / 2.0


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
