"""Test-side reference oracle: 4x4 step operators and the serial step loop.

The package evolves each ancilla (or nuclear) block as its own chain of
2x2 steps (``ptdilate.numkit.chain_2x2``, a two-level blocked scan over
chunks of ``n.bit_length()`` steps, O(log n) vectorised passes).
This module keeps the layout that places the two blocks into one 4x4
operator and the left-to-right step loop, for the tests to compare
against.  Imported by the tests; not itself a test module.
"""

import numpy as np


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
