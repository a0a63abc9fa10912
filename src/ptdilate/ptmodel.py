"""The PT-symmetric two-level Hamiltonian family and its closed-form evolution.

The family is ``H(r) = [[i r, 1], [1, -i r]]`` with one real strength
``r >= 0`` and unit off-diagonal coupling; time is dimensionless (hbar = 1,
one unit of time corresponds to 1 us at a 1 rad/us coupling).  The
closed-form population ``analytic_p0``, which the dilated simulation is
checked against, has one formula per PT regime, split where
``pt_eigenvalues`` splits: the unbroken one up to and including the
exceptional point r = 1, the broken one above it.  It picks once for a
single strength and per element for an array of them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pt_hamiltonian", "pt_eigenvalues", "analytic_p0"]

# Added to k^2 = 1 - r^2: no float r < 1 has k^2 below 2^-52 (~2.2e-16),
# so this changes no k there, and at r = 1 it lifts k from 0 to ~1.5e-154,
# where sin(k t)/k is t to rounding.
_TINY = float(np.finfo(float).tiny)
# The largest r whose r^2 is finite (its square is an ulp below the float max).
_R_MAX = float(np.sqrt(np.finfo(float).max))


def _strength(r):
    """``r`` as a float when 0-d, else as a float array; any negative or NaN
    strength raises ValueError."""
    s = float(r) if np.ndim(r) == 0 else np.asarray(r, dtype=float)
    if not (s >= 0.0 if isinstance(s, float) else np.all(s >= 0.0)):
        raise ValueError(f"r must be >= 0 (use symmetry for r < 0), got {r}")
    return s


def pt_hamiltonian(r: float) -> np.ndarray:
    """The 2x2 matrix [[i r, 1], [1, -i r]]; non-Hermitian for r > 0."""
    r = float(_strength(r))
    return np.array([[1j * r, 1.0], [1.0, -1j * r]], dtype=complex)


def pt_eigenvalues(r: float) -> tuple[complex, complex]:
    """(E+, E-) = (+sqrt(1-r^2), -sqrt(1-r^2)), principal branch.

    Real for r <= 1, purely imaginary (+-i sqrt(r^2-1)) for r > 1, both
    zero at the exceptional point.  Raises ValueError for an r whose r^2
    overflows (above ~1.34e154).
    """
    r = float(_strength(r))
    if r <= 1.0:
        e = complex(np.sqrt((1.0 - r) * (1.0 + r)))  # factored, as in _oscillating
    else:
        e = 1j * _broken_rate(r)
    return e, -e


def _broken_rate(r):
    """s = sqrt(r^2 - 1) for r > 1 (a float or a float array); ValueError
    naming r where r^2 overflows."""
    if not np.all(r <= _R_MAX):
        raise ValueError(f"r = {np.max(r)} is too large: r^2 overflows above r = {_R_MAX}")
    return np.sqrt((r - 1.0) * (r + 1.0))  # factored: r * r - 1 cancels near r = 1


def _oscillating(r, t):
    k = np.sqrt((1.0 - r) * (1.0 + r) + _TINY)  # factored: 1 - r * r cancels near r = 1
    kt = k * t
    sin_kt = np.sin(kt)
    return np.cos(kt) + (r / k) * sin_kt, sin_kt / k


def _growing(r, t):
    s = _broken_rate(r)
    # Divided by e^{s t} (the growing exponential): with g = 1 - e^{-2 s t}
    # from expm1, b = g/(2s) and a = r b + 1 - g/2 stay exact as s -> 0.
    g = -np.expm1(-2.0 * s * t)
    b = g / (2.0 * s)
    return r * b + (1.0 - 0.5 * g), b


def _state_components(r, t):
    """Overflow-safe components of the evolved state from |0>.

    ``r`` (a float, or a float array) and ``t`` broadcast against each
    other.  A float takes the formula of its regime, picked once: unbroken
    (trig) for r <= 1, the exceptional point included, broken (hyperbolic)
    above; an array picks it per element, by mask.
    Returns ``(a, b)`` with the physical (unnormalized) state proportional
    to ``(a, -i b)``; the common dominant exponential has been divided
    out, so only ratios of a and b are meaningful.
    """
    t = np.asarray(t, dtype=float)
    if isinstance(r, float):
        return (_oscillating if r <= 1.0 else _growing)(r, t)
    unbroken = r <= 1.0
    if unbroken.all() or not unbroken.any():
        return (_oscillating if unbroken.all() else _growing)(r, t)
    r, t = np.broadcast_arrays(r, t)
    a = np.empty(r.shape)
    b = np.empty(r.shape)
    for mask, formula in ((unbroken, _oscillating), (~unbroken, _growing)):
        m = np.broadcast_to(mask, r.shape)
        a[m], b[m] = formula(r[m], t[m])
    return a, b


def analytic_p0(r, t):
    """Normalized population of |0> at time(s) ``t``: |psi0|^2 / |psi|^2.

    ``t`` is the time elapsed since |0> was prepared, so a trajectory on a
    grid that starts at t0 != 0 compares at ``grid.times() - grid.t0``.

    Overflow-safe (the dominant exponential cancels) and exact to rounding
    through the exceptional point: two formulas, trig for r <= 1 and
    hyperbolic for r > 1 (the boundary of ``pt_eigenvalues``), with k lifted
    off 0 at r = 1 so that sin(k t)/k returns t.  Vectorized over ``t``.
    A 0-d strength (a Python or numpy number, or a 0-d array) picks its
    regime once, with Python comparisons; an array of strengths
    broadcasting against ``t`` picks it per element, so a model table over
    (r, t) is ``analytic_p0(r_grid[:, None], t)``.  Both paths apply the
    same formulas, so each table row equals the scalar-r call bit for bit.
    Any negative or NaN strength raises ``ValueError``, as does one above
    ~1.34e154, whose r^2 overflows.
    """
    a, b = _state_components(_strength(r), t)
    a2 = a * a  # a and b are real
    b2 = b * b
    return a2 / (a2 + b2)
