"""Test-side reference oracle: full 2x2 and 4x4 step operators and their chains.

The package evolves each ancilla (or nuclear) block as its own chain of
2x2 steps carried as SU(2) pairs (``ptdilate.numkit.su2_step`` and
``chain_su2``, a two-level blocked scan over chunks of ``n.bit_length()``
steps, O(log n) vectorised passes).  This module keeps the full-matrix
forms: ``mul_2x2``, the 2x2 stack product written out elementwise;
``unitary_2x2`` and ``chain_2x2``, the same closed form and scan on all
four entries of each step; ``su2_matrices``, the 2x2 step of a pair;
the layout that places the two blocks into one 4x4 operator; the
left-to-right step loop; and ``evolve_dilated_in_order``, the dilated
evolution with its chunks chained in turn on one thread, for the tests
to compare against.  Imported by the tests; not itself a test module.
"""

import numpy as np

from ptdilate.numkit import chain_su2, su2_step
from ptdilate.simulator import _postselect_batch


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


def su2_matrices(pairs: np.ndarray) -> np.ndarray:
    """(..., 2, 2) steps [[a, -b*], [b, a*]] of the (..., 2) pairs (a, b)."""
    a, b = pairs[..., 0], pairs[..., 1]
    return np.stack([np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)], -2)


def block_diag(blocks: np.ndarray) -> np.ndarray:
    """(..., 4, 4) operators from their two (..., 2, 2) blocks on axis -3.

    Block k sits on levels (k, k + 2): with the system (electron) factor
    first, those are the levels where the second tensor factor is k.
    """
    blocks = np.asarray(blocks)
    if blocks.shape[-3:] != (2, 2, 2):
        raise ValueError(f"expected blocks of shape (..., 2, 2, 2), got shape {blocks.shape}")
    out = np.zeros((*blocks.shape[:-3], 4, 4), dtype=blocks.dtype)
    for k in (0, 1):
        out[..., k::2, k::2] = blocks[..., k, :, :]
    return out


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


def evolve_dilated_in_order(hsa, initial: np.ndarray, steps_per_chunk: int):
    """(states, p0, success_prob) of ``simulator.evolve_dilated``, in one thread.

    The package's step kernels over the whole grid at once, except the
    chain: ``chain_su2`` runs chunk by chunk in order, each chunk from the
    last state of the one before, because its association depends on the
    chunk length.  The running angle is one cumulative sum over the grid
    and the phase multiplies every node in a single pass, broadcast over
    the system level.  Every step but the chain is elementwise per node.
    """
    c, dt = hsa.data, hsa.grid.dt
    n = len(c)
    x = np.empty(c.shape[:-1], dtype=complex)
    x.real, x.imag = c[..., 1], c[..., 2]
    a, z, x = ((f[:-1] + f[1:]) / 2.0 for f in (c[..., 0], c[..., 3], x))
    blocks = np.empty((n, 2, 2), dtype=complex)  # blocks[node, s, k]
    blocks[0] = np.reshape(initial, (2, 2))
    for start in range(0, n - 1, steps_per_chunk):
        stop = min(start + steps_per_chunk, n - 1)
        chain = chain_su2(su2_step(z[start:stop], x[start:stop], dt), blocks[start].T)
        blocks[start + 1 : stop + 1] = chain[1:].swapaxes(-1, -2)
    angle = np.cumsum(np.concatenate([np.zeros((1, 2)), a]), axis=0) * -dt
    phase = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    # Phase first, as in the package: the vectorised complex product of two
    # arrays need not equal the swapped one to the bit.
    states = (phase[:, None, :] * blocks).reshape(n, 4)
    p0, succ = _postselect_batch(states)
    return states, p0, succ
