"""One-parameter least-squares estimation of the non-Hermiticity strength.

Fits sampled P0(t) curves to the closed-form population model of the PT
family by a grid scan plus Brent's method from its best point (P0 is
smooth in r, but the information sum (dP0/dr)^2 collapses at r >= 1, so
derivative-based optimizers are avoided); each fit also carries the
eigenvalues E+- = +-sqrt(1 - r^2) of its strength, the points of the
bifurcation curve.

The scan scores every r of the one grid ``_GRID`` (``GRID_STEP`` over
[0, 2]) as SSE = sum_j T_gj^2 - 2 (T p)_g + p.p against the model table
T = ``analytic_p0(_GRID[:, None], t)`` and its row sums: one matrix product
per fit or block of sweep rows, a failed read being a zero in p whose T^2
leaves the row sums.  A score's ~1e-14 of rounding only picks the grid
point; every SSE in a result is the exact ``sse``.  A narrowed search range
is the window of ``_GRID`` points inside it.  ``fit_rows`` streams the table
through the scan in blocks of grid rows; a lone ``fit_r`` keeps it whole once
the same times come back (2,001 x n x 8 B: 1.3 MB at 81 samples), else drops it.
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
# Grid rows per block of the model table, whole or streamed: amortises per-call overhead.
_SCAN_CHUNK = 64
# The one scan grid; a narrowed r_range is a window on it.
_GRID = np.arange(0.0, 2.0 + GRID_STEP / 2.0, GRID_STEP)
# Step of the SSE curvature stencil at the minimum (central away from r = 0).
_CURVATURE_STEP = 1e-4
_last_t = None  # a copy of the last new times ``fit_r`` built a table for
_kept_table = None  # (that very copy, its table, its row sums) once they come back, in one tuple


@dataclass
class FitResult:
    """Fitted strength, its curvature-based standard error, and E+-.

    ``stderr`` follows the asymptotic least-squares convention
    sqrt(2 SSE / (n - 2) / d2SSE/dr2), which assumes i.i.d. residuals; the
    inverted P0 of noisy reads is heteroscedastic, so there it misstates the
    spread (2-sigma coverage 0.50 at r = 0.9 and 0.76 at r = 0.6 on the
    criterion-9 noise chain).  The fit is flagged ``degenerate`` and stderr
    is infinite when the curvature is not positive, when the scan minimum
    is pinned to the edge of the search range (its upper end, or its lower
    end when that lies above the physical edge r = 0), or when a range
    narrower than [0, 2] misses the minimum of the full [0, 2] scan.
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


def _brent(f, lo: float, hi: float, x: float) -> tuple[float, float]:
    """Minimum of f on [lo, hi] to ``REFINE_TOL`` by Brent's method (the ``fminbound``
    scheme) from x = w = v = ``x``: the best point evaluated and its f."""
    a, b, fx, tol = lo, hi, f(x), REFINE_TOL / 3.0
    v, fv, w, fw, d, e = x, fx, x, fx, 0.0, 0.0
    while abs(x - (xm := 0.5 * (a + b))) > 2.0 * tol - 0.5 * (b - a):
        q = 0.0
        if abs(e) > tol:  # a parabola through x, w and v
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q, e_prev, e = (-p if q > 0.0 else p), abs(q), e, d
        if q and abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
            d = p / q  # to its vertex, kept 2 tol inside the bracket
            if min(x + d - a, b - (x + d)) < 2.0 * tol:
                d = tol if xm >= x else -tol
        else:  # a golden-section step into the larger part
            e = (a if x >= xm else b) - x
            d = (3.0 - math.sqrt(5.0)) / 2.0 * e
        u = x + math.copysign(max(abs(d), tol), d)
        fu = f(u)
        if fu < fx:  # a tie keeps x, so the start stands unless beaten
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


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


def fit_r(samples, r_range: tuple[float, float] = (0.0, 2.0)) -> FitResult:
    """Least-squares strength estimate from (t, P0) samples.

    Scores every r of the 1e-3 grid over [0, 2] by one matrix product with
    the model table, takes the best r among the grid points inside
    ``r_range`` (a range holding none raises ValueError), refines it by
    Brent's method to 1e-6 on the exact ``sse`` between its neighbours in the
    range, keeping it unless beaten, and reports the curvature-based standard
    error.  ``samples`` is a sequence of (t, P0) pairs or a (n, 2) array.
    The table is built for the call, or kept from a second call at the same
    times (2,001 x n x 8 B) for them and NaN-dropped subsets.
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
    scores = _row_scores(t, p0)
    k = first + int(np.argmin(scores[first : last + 1]))
    return _refine(t, p0, k, first, last, int(np.argmin(scores)))


def _refine(t, p0, k: int, first: int, last: int, whole: int) -> FitResult:
    """The fit of the samples (t, p0) refined from ``_GRID[k]``, the best
    scan point of the window ``_GRID[first : last + 1]``; ``whole`` is the
    best scan point of the full grid."""
    blo = _GRID[max(k - 1, first)]
    bhi = _GRID[min(k + 1, last)]
    # Brent keeps the grid point unless its exact SSE (not its ~1e-14-off score) is beaten.
    r_best, best = _brent(lambda r: sse(r, t, p0), blo, bhi, float(_GRID[k]))

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
    pinned = k == last or (k == first and _GRID[k] > 0.0) or not first <= whole <= last
    degenerate = bool(pinned or not d2 > 0)  # pinned can be a numpy bool
    stderr = math.inf if degenerate else math.sqrt(2.0 * best / (t.size - 2) / d2)
    e_plus, e_minus = pt_eigenvalues(r_best)
    return FitResult(
        r_exp=float(r_best),
        stderr=stderr,
        sse=best,
        n_samples=t.size,
        e_plus=e_plus,
        e_minus=e_minus,
        degenerate=degenerate,
    )


def fit_rows(t, rows) -> list[FitResult]:
    """The fit of every row of P0 samples taken at the shared times ``t``,
    each equal to ``fit_r`` of that row's finite samples.

    ``rows`` is (n_rows, len(t)); non-finite entries (failed noisy reads)
    are dropped per row, and each row must keep 3.  The model table streams
    through the scan by blocks of ``_SCAN_CHUNK`` grid rows, each scored
    against all rows by one matrix product, and only each row's best grid
    point so far is kept.
    """
    t = np.asarray(t, dtype=float)
    rows = np.asarray(rows, dtype=float)
    if t.ndim != 1 or rows.ndim != 2 or rows.shape[1] != t.size:
        raise ValueError(f"rows must be (n_rows, {t.size}), one column per time, got {rows.shape}")
    keep = np.isfinite(rows)
    counts = keep.sum(axis=1)
    if np.any(counts < 3):
        raise ValueError(f"need at least 3 samples, got {counts[np.argmax(counts < 3)]}")
    if not np.all(np.isfinite(t)):
        raise ValueError("samples contain non-finite values; filter them first")
    best, ks = np.full(rows.shape[0], np.inf), np.zeros(rows.shape[0], dtype=int)
    for i in range(0, _GRID.size, _SCAN_CHUNK):
        table = analytic_p0(_GRID[i : i + _SCAN_CHUNK, None], t)
        scores = _scan(table, np.einsum("ij,ij->i", table, table), rows)
        won = scores.min(axis=1) < best  # strict: the first of equal scores wins, as in argmin
        best[won], ks[won] = scores[won].min(axis=1), i + scores[won].argmin(axis=1)
    last = _GRID.size - 1
    return [_refine(t[m], row[m], int(k), 0, last, int(k)) for row, m, k in zip(rows, keep, ks)]
