"""Test-side reference oracle: the strength fit scored by an elementwise scan.

``ptdilate.fitkit`` scores its grid scan as a matrix product with the model
table, whose scores carry ~1e-14 of rounding; this module keeps the scan
that sums the squared residuals ``(T_g - p0)^2`` of every grid row
elementwise, which gives each grid point's SSE exactly as ``fitkit.sse``
does, and the Brent refinement and curvature tail of ``fitkit.fit_r``
written out on its own.  The tests require every field of every fit to
equal the oracle's.  It also keeps the golden-section refinement with its
fallback to the grid point, which ``fitkit`` used before Brent's method, as
an independent check on the refined strength.  Imported by the tests; not
itself a test module.
"""

import math

import numpy as np

from ptdilate.fitkit import GRID_STEP, REFINE_TOL, FitResult, sse
from ptdilate.ptmodel import analytic_p0, pt_eigenvalues

GRID = np.arange(0.0, 2.0 + GRID_STEP / 2.0, GRID_STEP)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CGOLD = 1.0 - _GOLDEN
_CURVATURE_STEP = 1e-4
_CHUNK = 128


def scan_scores(t: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """The exact SSE of every ``GRID`` point, 128 grid rows at a time."""
    return np.concatenate(
        [
            np.sum((analytic_p0(GRID[i : i + _CHUNK, None], t) - p0) ** 2, axis=-1)
            for i in range(0, GRID.size, _CHUNK)
        ]
    )


def brent(f, lo: float, hi: float, x: float) -> tuple[float, float]:
    """Brent's method on [lo, hi] from x = w = v = ``x`` to ``REFINE_TOL``, as
    ``scipy.optimize.fminbound`` steps but keeping x on ties: (best x, its f)."""
    tol = REFINE_TOL / 3.0
    a, b = lo, hi
    fx = f(x)
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        if abs(x - xm) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev = e
            e = d
            if abs(p) < abs(0.5 * q * e_prev) and p > q * (a - x) and p < q * (b - x):
                parabolic = True
                d = p / q
                u = x + d
                if u - a < 2.0 * tol or b - u < 2.0 * tol:
                    d = tol if xm >= x else -tol
        if not parabolic:
            e = a - x if x >= xm else b - x
            d = _CGOLD * e
        u = x + math.copysign(max(abs(d), tol), d)
        fu = f(u)
        if fu < fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def golden(f, lo: float, hi: float, x: float) -> tuple[float, float]:
    """Golden section on [lo, hi] to ``REFINE_TOL``, then ``x`` if its f is
    lower: the refinement ``fitkit`` ran before Brent's method."""
    r = _golden_section(f, lo, hi, REFINE_TOL)
    best = f(r)
    fx = f(x)
    return (x, fx) if fx < best else (r, best)


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
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


def fit_r(samples, r_range=(0.0, 2.0), scores=None, refine=brent) -> FitResult:
    """The fit of (n, 2) finite ``samples`` over ``r_range``, refined from the
    best grid point by ``refine``; ``scores`` are their ``scan_scores``,
    computed here when not given."""
    samples = np.asarray(samples, dtype=float)
    t, p0 = samples[:, 0], samples[:, 1]
    n = t.size
    lo, hi = float(r_range[0]), float(r_range[1])
    first = int(np.searchsorted(GRID, lo, side="left"))
    last = int(np.searchsorted(GRID, hi, side="right")) - 1
    if scores is None:
        scores = scan_scores(t, p0)
    k = first + int(np.argmin(scores[first : last + 1]))
    blo = GRID[max(k - 1, first)]
    bhi = GRID[min(k + 1, last)]
    r_best, best = refine(lambda r: sse(r, t, p0), blo, bhi, float(GRID[k]))

    h = _CURVATURE_STEP
    if r_best >= h:
        r_minus = r_best - h
        d2 = (sse(r_best + h, t, p0) - 2.0 * best + sse(r_minus, t, p0)) / (
            (r_best + h - r_minus) / 2.0
        ) ** 2
    elif r_best > 0.0:
        s_hi, s_lo = sse(r_best + h, t, p0), sse(0.0, t, p0)
        d2 = 2.0 * (r_best * s_hi - (h + r_best) * best + h * s_lo) / (h * r_best * (h + r_best))
    else:
        d2 = (sse(2.0 * h, t, p0) - 2.0 * sse(h, t, p0) + best) / h**2
    pinned = k == last or (k == first and GRID[k] > 0.0) or not first <= np.argmin(scores) <= last
    degenerate = bool(pinned or not d2 > 0)
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
