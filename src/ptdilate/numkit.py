"""Dense complex linear-algebra kernels shared by the dilation pipeline.

Everything here operates on stacks of 2x2 complex matrices.  Neither the
dilated H_sa nor the NV lab-frame Hamiltonian couples the two values of
its second tensor factor, so both are carried as their two 2x2 blocks,
stacked on axis -3, and every evolution step is two independent 2x2
unitaries.  ``unitary_2x2``, ``mul_2x2`` and ``right_singular_2x2`` are
closed forms on 2x2 stacks, and ``chain_2x2`` is the one ordered product
of steps in the package: a two-level blocked prefix scan, O(n) work in
O(log n) Python iterations, with no loop over the steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotHermitian",
    "TimeGrid",
    "OperatorSeries",
    "unitary_2x2",
    "mul_2x2",
    "right_singular_2x2",
    "chain_2x2",
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
    4x4 operator, block k acting on the levels whose second tensor factor
    is k.
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
    w *= dt
    s = np.exp(-1j * dt * a)  # the phase, turned into s in place below
    del a
    # U = c I + s (h - a I), where h - a I = [[z, h01], [h10, -z]].
    c = s * np.cos(w)
    s *= -1j * dt
    w /= np.pi
    s *= np.sinc(w)
    del w
    u = np.empty(h.shape, dtype=complex)
    np.multiply(s, h[..., 0, 1], out=u[..., 0, 1])
    np.multiply(s, h[..., 1, 0], out=u[..., 1, 0])
    s *= z
    np.add(c, s, out=u[..., 0, 0])
    np.subtract(c, s, out=u[..., 1, 1])
    return u


def mul_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for broadcastable 2x2 stacks, written out elementwise
    (``@`` pays a per-matrix dispatch on long 2x2 stacks)."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    out[..., 0, 0] = a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
    out[..., 0, 1] = a[..., 0, 0] * b[..., 0, 1] + a[..., 0, 1] * b[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 0] * b[..., 0, 0] + a[..., 1, 1] * b[..., 1, 0]
    out[..., 1, 1] = a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]
    return out


def right_singular_2x2(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma_max and the right singular vectors ``v`` of a (..., 2, 2) stack.

    G = w^dag w = [[p, q], [q*, u]] has sigma_max^2 = (p + u)/2 + R with
    R = hypot((p - u)/2, |q|), and top eigenvector (a, q*) for p >= u, else
    (q, a), a = |p - u|/2 + R: neither form cancels.  G = c I to rounding
    (a <= eps (p + u)) takes (1, 0): its top eigenvector is noise there, and
    a subnormal (a, q) would not normalize.  The columns of ``v`` are
    (v0, v1) and (-v1*, v0*).
    """
    w = np.asarray(w)
    g = (w.conj() * w).real
    p, u = g[..., 0, 0] + g[..., 1, 0], g[..., 0, 1] + g[..., 1, 1]
    q = w[..., 0, 0].conj() * w[..., 0, 1] + w[..., 1, 0].conj() * w[..., 1, 1]
    rad = np.hypot((p - u) / 2.0, np.abs(q))
    a = np.abs(p - u) / 2.0 + rad
    scalar = a <= np.finfo(float).eps * (p + u)
    top = np.where(scalar, 1.0, np.where(p >= u, a, q))
    low = np.where(scalar, 0.0, np.where(p >= u, q.conj(), a))
    norm = np.hypot(np.abs(top), np.abs(low))
    v0, v1 = top / norm, low / norm
    v = np.stack([np.stack([v0, -v1.conj()], -1), np.stack([v1, v0.conj()], -1)], -2)
    return np.sqrt((p + u) / 2.0 + rad), v


def chain_2x2(steps: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Step chain: ``out[0] = init`` and ``out[k + 1] = steps[k] @ out[k]``.

    ``steps`` is a ``(n, ..., 2, 2)`` stack and ``init`` a ``(..., 2)``
    state; the result stacks ``n + 1`` states of that shape.  A two-level
    blocked scan: the steps are copied once into m chunks of
    L = n.bit_length() steps, chunk-major with the last chunk padded by
    identities.  L - 1 ``mul_2x2`` passes, each across all chunks, build
    every chunk's prefix products; a doubling (Hillis-Steele) scan of
    ~log2(m) passes over the chunk totals gives the state entering each
    chunk; one elementwise pass applies every prefix to its entering state.
    That is O(n) work in O(log n) Python iterations.  The association
    differs from a left-to-right loop, so the states agree with it to
    rounding, not bitwise.
    """
    steps = np.asarray(steps)
    init = np.asarray(init, dtype=complex)
    n, shape = len(steps), steps.shape[1:]
    size = max(n.bit_length(), 1)
    full, tail = divmod(n, size)
    m = full + (tail > 0)
    # buf[j, c] = steps[c * size + j]: each pass reads and writes one
    # contiguous slab.  Identity padding keeps the products exact.
    buf = np.empty((size, m, *shape), dtype=complex)
    buf[:, :full] = steps[: full * size].reshape(full, size, *shape).swapaxes(0, 1)
    if tail:
        buf[:tail, full] = steps[full * size :]
        buf[tail:, full] = np.eye(2)
    for j in range(1, size):
        buf[j] = mul_2x2(buf[j], buf[j - 1])
    # tot[c] = total of chunks 0..c, for every chunk but the last.
    tot = buf[-1, :-1].copy()
    shift = 1
    while shift < len(tot):
        tot[shift:] = mul_2x2(tot[shift:], tot[:-shift])
        shift *= 2
    # v[c]: the state entering chunk c.
    v = np.empty((m, *init.shape), dtype=complex)
    v[:1] = init
    np.multiply(tot[..., 0], init[..., None, 0], out=v[1:])
    v[1:] += tot[..., 1] * init[..., None, 1]
    # out is padded to whole chunks, so dst views it chunk-major; column 1
    # is scaled in place in buf, so the apply adds no n-sized temporary.
    out = np.empty((m * size + 1, *init.shape), dtype=complex)
    out[0] = init
    dst = out[1:].reshape(m, size, *init.shape).swapaxes(0, 1)
    buf[..., 1] *= v[..., None, 1]
    np.multiply(buf[..., 0], v[..., None, 0], out=dst)
    dst += buf[..., 1]
    return out[: n + 1]
