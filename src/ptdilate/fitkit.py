"""One-parameter least-squares estimation of the non-Hermiticity strength.

Fits sampled P0(t) curves to the closed-form population model of the PT
family by a coarse grid scan plus golden-section refinement (P0 is smooth
in r, but the information sum (dP0/dr)^2 collapses at r >= 1, so
derivative-based optimizers are avoided); each fit also carries the
eigenvalues E+- = +-sqrt(1 - r^2) of its strength, the points of the
bifurcation curve.

The scan scores every r of the one grid ``_GRID`` (``GRID_STEP`` over
[0, 2]) as SSE = sum_j T_gj^2 - 2 (T p)_g + p.p against the model table
T = ``analytic_p0(_GRID[:, None], t)`` and its row sums: one matrix product
per fit or block of sweep rows, a failed read being a zero in p whose T^2
leaves the row sums.  A score's ~1e-14 of rounding only picks the grid
point; every SSE in a result is the exact ``sse``.  A narrowed search range
is the window of ``_GRID`` points inside it.  ``fit_rows`` builds the table
once per matrix; a lone ``fit_r`` keeps it once the same times come back
(2,001 x n x 8 B: 1.3 MB at 81 samples, 3.2 MB at 201), else drops it.
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
# Grid rows per block filling the model table (its transients stay under a
# quarter of the table) and data rows per block of scores in fit_rows (1 MB):
# enough to amortise the per-call overhead.
_SCAN_CHUNK = 64
# The one scan grid; a narrowed r_range is a window on it.
_GRID = np.arange(0.0, 2.0 + GRID_STEP / 2.0, GRID_STEP)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Step of the SSE curvature stencil at the minimum (central away from r = 0).
_CURVATURE_STEP = 1e-4
_last_t = None  # a copy of the last new times ``fit_r`` built a table for
_kept_table = None  # (that very copy, its table, its row sums) once they come back, in one tuple


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


def _model_table(t: np.ndarray):
    """The model table over ``_GRID`` x ``t``, filled by blocks, and its row sums of squares."""
    table = np.empty((_GRID.size, t.size))
    for i in range(0, _GRID.size, _SCAN_CHUNK):
        table[i : i + _SCAN_CHUNK] = analytic_p0(_GRID[i : i + _SCAN_CHUNK, None], t)
    return table, np.einsum("ij,ij->i", table, table)


def _scan(table: np.ndarray, sq: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The (b, 2,001) scan scores sum T^2 - 2 T.p + p.p of the P0 rows ``p`` (b, n)
    at the table's times, the columns of each row's non-finite reads dropped."""
    miss = ~np.isfinite(p)
    p = np.where(miss, 0.0, p)
    scores = sq - 2.0 * (p @ table.T) + np.einsum("ij,ij->i", p, p)[:, None]
    for i in np.flatnonzero(miss.any(axis=1)):
        scores[i] -= np.square(table[:, miss[i]]).sum(axis=1)
    return scores


def _row_scores(t: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """Scan scores of one row, on the table kept from the second call at the
    same times and read for them or a subset in order (failed reads dropped)."""
    global _last_t, _kept_table
    last = _last_t
    if last is not None:
        keep = slice(None) if np.array_equal(last, t) else np.isin(last, t)
        if np.array_equal(last[keep], t):
            kept = _kept_table
            if kept is None or kept[0] is not last:
                kept = _kept_table = (last, *_model_table(last))
            row = np.full(last.size, np.nan)  # NaN at the columns of dropped reads
            row[keep] = p0
            return _scan(*kept[1:], row[None])[0]
    _last_t, _kept_table = t.copy(), None
    return _scan(*_model_table(t), p0[None])[0]


def fit_r(
    samples, r_range: tuple[float, float] = (0.0, 2.0), *, _scores=None
) -> FitResult:
    """Least-squares strength estimate from (t, P0) samples.

    Scores every r of the 1e-3 grid over [0, 2] by one matrix product with
    the model table, takes the best r among the grid points inside
    ``r_range`` (a range holding none raises ValueError), refines its bracket
    within them by golden section to 1e-6 on the exact ``sse``, and reports
    the curvature-based standard error.  ``samples`` is a sequence of (t, P0)
    pairs or a (n, 2) array.  ``_scores`` are their scan scores, as ``fit_rows``
    passes them.  Without them the table is built for the call, or kept from
    a second call at the same times (2,001 x n x 8 B) for them and NaN-dropped subsets.
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
    scores = _row_scores(t, p0) if _scores is None else _scores
    k = first + int(np.argmin(scores[first : last + 1]))
    blo = _GRID[max(k - 1, first)]
    bhi = _GRID[min(k + 1, last)]
    r_best = _golden_section(lambda r: sse(r, t, p0), blo, bhi, REFINE_TOL)
    best = sse(r_best, t, p0)
    # Golden section assumes unimodality within the bracket; keep the grid
    # minimum if its exact SSE (not its score, ~1e-14 off) beats refinement.
    if (at_k := sse(_GRID[k], t, p0)) < best:
        r_best, best = float(_GRID[k]), at_k

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
    are dropped per row.  The model table is built once, and each block of
    ``_SCAN_CHUNK`` rows scored by one matrix product with it.
    """
    t = np.asarray(t, dtype=float)
    rows = np.asarray(rows, dtype=float)
    if t.ndim != 1 or rows.ndim != 2 or rows.shape[1] != t.size:
        raise ValueError(f"rows must be (n_rows, {t.size}), one column per time, got {rows.shape}")
    table, sq = _model_table(t)
    fits = []
    for i in range(0, rows.shape[0], _SCAN_CHUNK):
        block = rows[i : i + _SCAN_CHUNK]
        for row, scores in zip(block, _scan(table, sq, block)):
            keep = np.isfinite(row)
            fits.append(fit_r(np.column_stack([t[keep], row[keep]]), _scores=scores))
    return fits
