"""Test-side reference oracle: the general matrix exponential.

The package takes its step exponentials in closed form, as a phase times
an SU(2) pair (``ptdilate.numkit.su2_step``).  This module keeps a generic
scaling-and-squaring Pade [6/6] ``expm`` that assumes no structure, for
the tests to compare against.  Imported by the tests; not itself a test
module.
"""

import math

import numpy as np

# Pade [6/6] numerator coefficients, b[j] * A^j; the denominator uses the
# same coefficients with alternating signs.
_PADE6 = (665280.0, 332640.0, 75600.0, 10080.0, 840.0, 42.0, 1.0)

# Scale so the Pade argument norm stays below this; 0.25 keeps the [6/6]
# approximant comfortably beyond double precision.
_PADE6_THETA = 0.25


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade [6/6] core.

    Works on any square complex matrix (no normality assumed) and on
    stacks of shape ``(..., n, n)``.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    # One-norm over the whole stack; a single scaling power keeps the
    # squaring loop batched.
    norm = np.max(np.sum(np.abs(a), axis=-2)) if a.size else 0.0
    s = max(0, math.ceil(math.log2(norm / _PADE6_THETA))) if norm > _PADE6_THETA else 0
    x = a / (2.0**s)

    b = _PADE6
    eye = np.broadcast_to(np.eye(n, dtype=complex), x.shape)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x2 @ x4
    even = b[0] * eye + b[2] * x2 + b[4] * x4 + b[6] * x6
    odd = x @ (b[1] * eye + b[3] * x2 + b[5] * x4)
    r = np.linalg.solve(even - odd, even + odd)
    for _ in range(s):
        r = r @ r
    return r
