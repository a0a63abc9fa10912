"""Dense complex linear-algebra kernels shared by the dilation pipeline.

Everything here operates on stacks of 2x2 complex matrices or their
parts.  Neither the dilated H_sa nor the NV lab-frame Hamiltonian couples
the two values of its second tensor factor, so every evolution step is two
independent 2x2 unitaries, each a phase times an SU(2) step carried as its
pair of entries (``su2_step``) and built from the parts (a, z, x) of its
block a I + z sz + Re(x) sx + Im(x) sy.  ``chain_su2`` is the one ordered
product of steps in the package: a blocked prefix scan, O(n) work in
O(log n) Python iterations.
``gram_2x2`` and ``top_singular_2x2`` are closed forms on 2x2 stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotHermitian",
    "TimeGrid",
    "OperatorSeries",
    "su2_step",
    "gram_2x2",
    "top_singular_2x2",
    "chain_su2",
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

    def node_times(self, start: int, stop: int, step: int = 1) -> np.ndarray:
        """``times()[start:stop:step]`` for 0 <= start <= stop <= n_nodes, without
        the other nodes: k dt + t0, the last node t1, as np.linspace forms them
        (bit for bit whenever dt > 0)."""
        k = np.arange(start, stop, step)
        t = k * self.dt + self.t0
        t[k == self.n_nodes - 1] = self.t1
        return t


@dataclass
class OperatorSeries:
    """A per-node sequence of operators (or state vectors) over a TimeGrid.

    ``data`` has shape ``(n_nodes, ...)``: ``(n_nodes, 2, 2)`` for the metric M
    and ``(n_nodes, 2, 4)`` for the real Pauli coefficients (I, x, y, z) of
    the two 2x2 blocks of H_sa, block k acting on the ancilla level k.
    """

    grid: TimeGrid
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"series length {self.data.shape[0]} != grid nodes {self.grid.n_nodes}"
            )


def su2_step(z: np.ndarray, x: np.ndarray, dt: float) -> np.ndarray:
    """The pair (alpha, beta) of exp(-i dt (z sz + Re(x) sx + Im(x) sy)).

    ``z`` (real) and ``x`` broadcast together; the step is [[alpha, -beta*],
    [beta, alpha*]], and a I + z sz + ... steps as e^{-i dt a} times it.
    With w = hypot(z, |x|), alpha = cos(dt w) - i s z and beta = -i s x,
    s = sin(dt w)/w taken as dt sinc(dt w / pi), so w = 0 is exact.
    """
    z, x = np.asarray(z, dtype=float), np.asarray(x)
    w = np.hypot(z, np.abs(x))
    w *= dt
    pair = np.empty((*w.shape, 2), dtype=complex)
    np.cos(w, out=pair[..., 0].real)
    w /= np.pi
    neg_s = np.sinc(w) * -dt
    del w
    pair[..., 0].imag = neg_s * z
    pair[..., 1].real = -(neg_s * x.imag)
    pair[..., 1].imag = neg_s * x.real
    return pair


def gram_2x2(w00, w01, w10, w11) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries p, u (real) and q of w^dag w = [[p, q], [q*, u]] from those of w."""
    p = (w00.conj() * w00).real + (w10.conj() * w10).real
    u = (w01.conj() * w01).real + (w11.conj() * w11).real
    return p, u, w00.conj() * w01 + w10.conj() * w11


def top_singular_2x2(p, u, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma_max and the top right singular vector (v0, v1) of a 2x2 stack w
    from G = w^dag w = [[p, q], [q*, u]] (``gram_2x2``); (-v1*, v0*) is the other.

    sigma_max^2 = (p + u)/2 + R with R = hypot((p - u)/2, |q|), and G's top
    eigenvector is (a, q*) for p >= u, else (q, a), a = |p - u|/2 + R:
    neither form cancels.  G = c I to rounding (a <= eps (p + u)) takes
    (1, 0): its top eigenvector is noise there, and a subnormal (a, q) would
    not normalize.
    """
    rad = np.hypot((p - u) / 2.0, np.abs(q))
    a = np.abs(p - u) / 2.0 + rad
    scalar = a <= np.finfo(float).eps * (p + u)
    top = np.where(scalar, 1.0, np.where(p >= u, a, q))
    low = np.where(scalar, 0.0, np.where(p >= u, q.conj(), a))
    norm = np.hypot(np.abs(top), np.abs(low))
    return np.sqrt((p + u) / 2.0 + rad), top / norm, low / norm


def _mul_su2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(a, b) applied to (c, d), pair-major on axis 0: (a c - b* d, b c + a* d),
    the pair of a product of SU(2) steps or a step applied to a state.  Its
    four complex products are a full 2x2 product's, so the two agree bitwise."""
    (a, b), (c, d) = p, q
    return np.stack([a * c - b.conj() * d, b * c + a.conj() * d])


def chain_su2(pairs: np.ndarray, init: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Step chain: ``out[0] = init`` and ``out[k + 1] = U_k @ out[k]``.

    ``pairs`` is a ``(n, ..., 2)`` stack of SU(2) pairs (a, b), the steps
    U_k = [[a, -b*], [b, a*]], ``init`` a ``(..., 2)`` state and ``out``, if
    given, the (n + 1, ..., 2) array or view to fill.  A two-level blocked
    scan: m chunks of L = n.bit_length() steps (the last padded by identities)
    take L - 1 pair-product passes for their prefix products, a doubling
    (Hillis-Steele) scan over the chunk totals gives the state entering each
    chunk, and L passes apply the prefixes to it.  The states agree with a
    left-to-right loop to rounding, not bitwise.
    """
    src = np.moveaxis(np.asarray(pairs), -1, 0)  # pair-major, as every pass
    init = np.moveaxis(np.asarray(init, dtype=complex), -1, 0)
    n, shape = src.shape[1], src.shape[2:]
    size = max(n.bit_length(), 1)
    full, tail = divmod(n, size)
    m = full + (tail > 0)
    # buf[:, j, c] = pairs[c * size + j]: each pass reads and writes two
    # contiguous slabs.  Identity padding keeps the products exact.
    buf = np.empty((2, size, m, *shape), dtype=complex)
    buf[:, :, :full] = src[:, : full * size].reshape(2, full, size, *shape).swapaxes(1, 2)
    if tail:
        buf[:, :tail, full] = src[:, full * size :]
        buf[0, tail:, full], buf[1, tail:, full] = 1.0, 0.0
    for j in range(1, size):
        buf[:, j] = _mul_su2(buf[:, j], buf[:, j - 1])
    # tot[:, c] = total of chunks 0..c, for every chunk but the last.
    tot = buf[:, -1, :-1].copy()
    shift = 1
    while shift < tot.shape[1]:
        tot[:, shift:] = _mul_su2(tot[:, shift:], tot[:, :-shift])
        shift *= 2
    # v[:, c]: the state entering chunk c.
    v = np.concatenate([init[:, None], _mul_su2(tot, init[:, None])], axis=1)
    # Prefix j of chunk c applied to its entering state, as in _mul_su2, is state c L + j + 1.
    out = np.empty((n + 1, *init.shape[1:], 2), dtype=complex) if out is None else out
    out[0] = np.moveaxis(init, 0, -1)
    c, d = v
    for j in range(size):
        a, b = buf[:, j]
        for k, state in enumerate((a * c - b.conj() * d, b * c + a.conj() * d)):
            out[j + 1 : full * size + 1 : size, ..., k] = state[:full]
            if j < tail:
                out[full * size + j + 1, ..., k] = state[full]
    return out
