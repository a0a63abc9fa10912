"""One-parameter least-squares estimation of the non-Hermiticity strength.

Fits sampled P0(t) curves to the closed-form population model of the PT
family by a coarse grid scan plus golden-section refinement (P0 is smooth
in r, but the information sum (dP0/dr)^2 collapses at r >= 1, so
derivative-based optimizers are avoided); each fit also carries the
eigenvalues E+- = +-sqrt(1 - r^2) of its strength, the points of the
bifurcation curve.

The scan scores every r of the one grid ``_GRID`` (``GRID_STEP`` over
[0, 2]) against the model table ``analytic_p0(_GRID[:, None], t)``, held as
blocks of ``_SCAN_CHUNK`` grid rows so the transients stay small; a narrowed
search range is the window of ``_GRID`` points inside it.  The table does
not depend on the data: ``fit_rows`` builds it once for the shared times of
a sweep matrix, and each row's fit scores the columns of its finite samples.
A lone ``fit_r`` keeps the table once the same times come back (2,001 x n
x 8 B: 1.3 MB at 81 samples, 3.2 MB at 201); a one-off call streams it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ptmodel import analytic_p0, pt_eigenvalues

__all__ = [
    "GRID_STEP",
    "REFINE_TOL",
    "FitResult",
    "fit_r",
    "fit_rows",
    "sse",
]

GRID_STEP = 1e-3
REFINE_TOL = 1e-6
# Grid rows per block of the model table: enough to amortise the per-call
# overhead, few enough that each block's transients stay near 200 kB at
# 201 samples.
_SCAN_CHUNK = 128
# The one scan grid; a narrowed r_range is a window on it.
_GRID = np.arange(0.0, 2.0 + GRID_STEP / 2.0, GRID_STEP)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Step of the SSE curvature stencil at the minimum (central away from r = 0).
_CURVATURE_STEP = 1e-4
_last_t = None  # a copy of the last new times ``fit_r`` streamed a table for
_kept = None  # (that very copy, its table) once they come back, paired so no other times read it


@dataclass
class FitResult:
    """Fitted strength, its curvature-based standard error, and E+-.

    ``stderr`` follows the asymptotic least-squares convention
    sqrt(2 SSE / (n - 2) / d2SSE/dr2).  The fit is flagged ``degenerate``
    and stderr is infinite when the curvature is not positive, when the
    scan minimum is pinned to the edge of the search range (its upper
    end, or its lower end when that lies above the physical edge r = 0),
    or when a range narrower than [0, 2] misses the minimum of the full
    [0, 2] scan.
    """

    r_exp: float
    stderr: float
    sse: float
    n_samples: int
    e_plus: complex
    e_minus: complex
    degenerate: bool = False


def sse(r: float, t: np.ndarray, p0: np.ndarray) -> float:
    """Sum of squared residuals of the population model at strength r."""
    return float(((analytic_p0(r, t) - p0) ** 2).sum())


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Minimum of a unimodal f on [lo, hi] to within tol (lo when lo == hi)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _table_blocks(t: np.ndarray):
    """The model table over ``_GRID`` x ``t``, ``_SCAN_CHUNK`` rows per block."""
    for i in range(0, _GRID.size, _SCAN_CHUNK):
        yield analytic_p0(_GRID[i : i + _SCAN_CHUNK, None], t)


def _columns(blocks, keep: np.ndarray):
    """``blocks`` at the ``keep`` columns, C-ordered by compress (``blk[:, keep]``
    is not), so every SSE sums in the order ``sse`` sums it."""
    return blocks if keep.all() else (blk.compress(keep, axis=1) for blk in blocks)


def _table(t: np.ndarray):
    """The model table at ``t``, kept from the second call at the same times
    and read for them or a subset in order (failed reads dropped)."""
    global _last_t, _kept
    last = _last_t
    if last is not None:
        keep = None if np.array_equal(last, t) else np.isin(last, t)  # None: every column
        if keep is None or np.array_equal(last[keep], t):
            kept = _kept
            if kept is None or kept[0] is not last:
                kept = _kept = (last, list(_table_blocks(last)))
            return kept[1] if keep is None else _columns(kept[1], keep)
    _last_t, _kept = t.copy(), None
    return _table_blocks(t)


def fit_r(
    samples, r_range: tuple[float, float] = (0.0, 2.0), *, _blocks=None
) -> FitResult:
    """Least-squares strength estimate from (t, P0) samples.

    Scores every r of the 1e-3 grid over [0, 2] against the model table,
    takes the best r among the grid points inside ``r_range`` (a range
    holding none raises ValueError), refines its bracket within them by
    golden section to 1e-6, and reports the curvature-based standard
    error.  ``samples`` is a sequence of (t, P0) pairs or a (n, 2) array.
    ``_blocks`` is the model table at exactly these sample times, as
    ``fit_rows`` passes it.  Without it the table streams, or is kept from a
    second call at the same times (2,001 x n x 8 B) for them and NaN-dropped subsets.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"samples must be (n, 2) pairs of (t, P0), got {arr.shape}")
    n = arr.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples contain non-finite values; filter them first")
    t, p0 = arr[:, 0], arr[:, 1]

    lo, hi = float(r_range[0]), float(r_range[1])
    if not (0.0 <= lo < hi <= 2.0):
        raise ValueError(f"r_range must satisfy 0 <= lo < hi <= 2, got {r_range}")
    # The window of _GRID points in [lo, hi]: the first >= lo to the last <= hi.
    first = int(np.searchsorted(_GRID, lo, side="left"))
    last = int(np.searchsorted(_GRID, hi, side="right")) - 1
    if first > last:
        raise ValueError(f"r_range {r_range} holds no point of the {GRID_STEP:g} scan grid")
    if _blocks is None:
        _blocks = _table(t)
    scores = np.concatenate([np.sum((blk - p0) ** 2, axis=-1) for blk in _blocks])
    k = first + int(np.argmin(scores[first : last + 1]))
    blo = _GRID[max(k - 1, first)]
    bhi = _GRID[min(k + 1, last)]
    r_best = _golden_section(lambda r: sse(r, t, p0), blo, bhi, REFINE_TOL)
    best = sse(r_best, t, p0)
    # Golden section assumes unimodality within the bracket; keep the
    # grid minimum if refinement somehow did worse.
    if scores[k] < best:
        r_best, best = float(_GRID[k]), float(scores[k])

    h = _CURVATURE_STEP
    if r_best >= h:
        r_minus = r_best - h
        d2 = (sse(r_best + h, t, p0) - 2.0 * best + sse(r_minus, t, p0)) / (
            (r_best + h - r_minus) / 2.0
        ) ** 2
    elif r_best > 0.0:  # the lower step is cut to r_best by the edge r = 0
        s_hi, s_lo = sse(r_best + h, t, p0), sse(0.0, t, p0)
        d2 = 2.0 * (r_best * s_hi - (h + r_best) * best + h * s_lo) / (h * r_best * (h + r_best))
    else:  # a minimum on the edge has a nonzero slope: one-sided stencil
        d2 = (sse(2.0 * h, t, p0) - 2.0 * sse(h, t, p0) + best) / h**2
    # Pinned to the window's edge (its lower edge only above r = 0), or a
    # narrowed window missing the best fit of the whole grid.
    pinned = k == last or (k == first and _GRID[k] > 0.0) or not first <= np.argmin(scores) <= last
    degenerate = bool(pinned or not d2 > 0)  # pinned can be a numpy bool
    stderr = math.inf if degenerate else math.sqrt(2.0 * best / (n - 2) / d2)
    e_plus, e_minus = pt_eigenvalues(r_best)
    return FitResult(
        r_exp=float(r_best),
        stderr=stderr,
        sse=best,
        n_samples=n,
        e_plus=e_plus,
        e_minus=e_minus,
        degenerate=degenerate,
    )


def fit_rows(t, rows) -> list[FitResult]:
    """``fit_r`` of every row of P0 samples taken at the shared times ``t``.

    ``rows`` is (n_rows, len(t)); non-finite entries (failed noisy reads)
    are dropped per row.  The model table is built once, and each row's
    fit scores the table columns of its finite samples.
    """
    t = np.asarray(t, dtype=float)
    rows = np.asarray(rows, dtype=float)
    if t.ndim != 1 or rows.ndim != 2 or rows.shape[1] != t.size:
        raise ValueError(f"rows must be (n_rows, {t.size}), one column per time, got {rows.shape}")
    blocks = list(_table_blocks(t))
    fits = []
    for row in rows:
        keep = np.isfinite(row)
        fits.append(fit_r(np.column_stack([t[keep], row[keep]]), _blocks=_columns(blocks, keep)))
    return fits
