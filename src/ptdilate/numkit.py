"""Dense complex linear-algebra kernels shared by the dilation pipeline.

Everything here operates on small (dim <= 4 in practice) dense complex
matrices.  The functions accept stacked inputs with shape ``(..., n, n)``
wherever that comes for free, which lets callers exponentiate a whole
series of step matrices in one call.  ``ordered_product`` is the one
serial step loop of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotHermitian",
    "TimeGrid",
    "OperatorSeries",
    "expm",
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

    ``data`` has shape ``(n_nodes, ...)``; for operators ``(n_nodes, d, d)``.
    """

    grid: TimeGrid
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"series length {self.data.shape[0]} != grid nodes {self.grid.n_nodes}"
            )


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
