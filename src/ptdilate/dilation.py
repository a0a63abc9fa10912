"""Hermitian dilation engine for a constant non-Hermitian 2x2 H_s.

The inverse propagator ``W(t) = exp(+i (t - t0) H_s)`` is evaluated in
closed form at every grid node: with ``tau = tr H_s / 2``,
``A = H_s - tau I`` and ``k = sqrt(-det A)``, ``A^2 = k^2 I`` gives
``W = e^{i tau s} (cos(k s) I + i sin(k s)/k A)``, ``s = t - t0``, and
``sin(k s)/k = s`` at the exceptional point ``k = 0``.  The bracket has
determinant 1, so the horizon check, cond W <= 1e14, needs neither W nor
an SVD: ``cond W + 1/cond W = ||W||_F^2 / |det W|`` is
``2 |cos k s|^2 + |sin(k s)/k|^2 ||A||_F^2``.  The scale
``|det W| = e^{-s Im tr H_s}`` is checked in logs as well, so that W, its
singular values and m0 stay inside the float range.  From ``W`` the engine
builds the metric operator ``M(t)`` and the time-dependent dilated
Hermitian Hamiltonian ``H_sa(t) = Lambda x I + Gamma x sigma_z`` on a
uniform time grid; the operator pair ``Lambda(t), Gamma(t)`` comes
from the ancilla coupling ``eta(t) = sqrt(M(t) - I)`` and is kept only
inside H_sa.  H_sa leaves the two ancilla sigma_z levels uncoupled, so
it is stored as its two blocks ``[Lambda + Gamma, Lambda - Gamma]``,
one per ancilla level, each as its real Pauli coefficients (I, x, y, z):
Hermitian by format, and never assembled into a 2x2 or 4x4 operator.
Post-selecting the ancilla on the |-> branch of the dilated unitary
evolution reproduces the non-unitary H_s dynamics.

All metric-derived operators are evaluated in the singular basis of the
inverse propagator, where the defining formulas
``Lambda = {H + [i deta + eta H] eta} M^{-1}`` and
``Gamma = i [H eta - eta H - i deta] M^{-1}`` reduce to the closed forms
``Lambda~_ij = (d_i h_ij + d_j h*_ji)/(d_i + d_j)`` and
``Gamma~_ij = i (h_ij - h*_ji)/(d_i + d_j)`` (``h = V^dag H_s V``,
``d_i`` the eigenvalues of eta).  These stay fully accurate even when
the metric spans 13+ orders of magnitude (broken-symmetry regime at
long times), where the direct products lose several digits to
cancellation.  ``V`` comes from the closed-form eigenvectors of W^dag W
and every product is written out entry by entry: no LAPACK call is made.
Both closed forms are Hermitian elementwise, so ``V (Lambda~ +- Gamma~)
V^dag`` is fixed by its real diagonal and (0, 1) entry, which
``_sandwich`` forms in one pass.  The metric solves i dM/dt = H_s^dag M -
M H_s from M(t0) = m0 I, so it is m0 times the entries of W^dag W that V
comes from: ``M = m0 W^dag W``, Hermitian by format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import OperatorSeries, TimeGrid, gram_2x2, top_singular_2x2

__all__ = [
    "MARGIN",
    "SingularPropagator",
    "DilationConfig",
    "DilationResult",
    "DiagnosticsReport",
    "verify_dilation",
    "check_horizon",
    "dilate",
]

# Ancilla basis of the dilation: |-> and |+> are the sigma_y eigenstates;
# the |-> branch is the post-selected one.
ANCILLA_MINUS = np.array([1.0, -1.0j]) / np.sqrt(2.0)
ANCILLA_PLUS = np.array([-1.0j, 1.0]) / np.sqrt(2.0)

# min eig(M - I) = m0 mu' - 1, to an ulp; dt^2 must stay well below it (README).
MARGIN = 0.1
_COND_LIMIT = 1e14
# Largest sigma_max^2 / sigma_min^2 of W over the nodes so far.  As W = I at
# t0, mu' <= 1 and m0 sigma^2 stays in [1 + MARGIN, (1 + MARGIN) 1e300].
_SPREAD_LIMIT = 1e300


class SingularPropagator(RuntimeError):
    """Evolution operator numerically non-invertible (integration blow-up);
    ``at_t0`` means W fails already at t0, where it is I: H_s is too large."""

    at_t0 = False


@dataclass(frozen=True)
class DilationConfig:
    """The grid to dilate on; m0 = (1 + MARGIN) / mu' is fixed by it."""

    grid: TimeGrid


@dataclass
class DilationResult:
    m0: float
    mu_prime: float
    grid: TimeGrid
    m_series: OperatorSeries
    hsa_series: OperatorSeries  # (n_nodes, 2, 4) real: (I, x, y, z) of Lambda +- Gamma


@dataclass
class DiagnosticsReport:
    """Max-over-grid residuals of the dilation identities (all relative).

    ``hermiticity`` and ``block_antisym`` are exactly 0 (``dilate`` writes
    H_sa as real Pauli coefficients) and ``min_eig_m_minus_i`` is ``MARGIN``
    by construction; ``metric_ode`` is the one that can move.  It reads all
    four entries of M, so a metric that is not Hermitian shows in it.
    """

    hermiticity: float  # ||H_sa - H_sa^dag||_F / ||H_sa||_F = 2 ||Im c|| / ||c||
    metric_ode: float  # i dM/dt = H^dag M - M H (central differences, interior nodes)
    block_antisym: float  # H^(-+) = -H^(+-) in the |+->, |-> ancilla basis
    min_eig_m_minus_i: float  # min over grid, m0 mu' - 1 (mu' from singular values)


def _as_matrix(h_s) -> np.ndarray:
    """H_s as a constant finite 2x2 complex matrix."""
    if callable(h_s):
        raise TypeError("H_s must be a constant 2x2 matrix, not a callable")
    mat = np.asarray(h_s, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"H_s must be a 2x2 matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"H_s must be finite, got {mat.tolist()}")
    return mat


def _horizon_terms(h_s: np.ndarray, grid: TimeGrid):
    """s = t - t0, tau, A, cos(k s), sin(k s)/k of W (module docstring), checked."""
    s = grid.times() - grid.t0
    tau = (h_s[0, 0] + h_s[1, 1]) / 2.0
    a = h_s - tau * np.eye(2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k = np.sqrt(a[0, 0] ** 2 + a[0, 1] * a[1, 0])  # -det A, as tr A = 0
        cos_k = np.cos(k * s)
        sin_k = np.sin(k * s) / k if k != 0 else s
        cond_sum = 2.0 * np.abs(cos_k) ** 2 + np.abs(sin_k) ** 2 * np.sum(np.abs(a) ** 2)
        # log sigma^2 lies within log |det W| +- log cond W, and cond W < cond_sum.
        log_det = -s * np.trace(h_s).imag
        log_c = np.log(cond_sum)
        spread = np.maximum.accumulate(log_det + log_c) - np.minimum.accumulate(log_det - log_c)
    bad_cond = ~(cond_sum <= _COND_LIMIT)
    bad = bad_cond | ~(spread <= np.log(_SPREAD_LIMIT))
    if np.any(bad):
        first = int(np.argmax(bad))
        t_bad = f"at t = {grid.times()[first]:.6g}"
        exc = SingularPropagator(
            f"propagator condition number first exceeds {_COND_LIMIT:.0e} {t_bad}"
            if bad_cond[first]
            else f"propagator scale |det W| = exp(-(t - t0) Im tr H_s) reaches "
            f"exp({log_det[first]:.6g}): sigma_max^2 / sigma_min^2 of W over the grid "
            f"first exceeds {_SPREAD_LIMIT:.0e} {t_bad}"
        )
        exc.at_t0 = first == 0
        raise exc
    return s, tau, a, cos_k, sin_k


def check_horizon(h_s, grid: TimeGrid) -> None:
    """Raise SingularPropagator at the first node where cond W passes 1e14 or
    is NaN, or where the scale |det W| spreads W's singular values past the
    float range (sigma_max^2 / sigma_min^2 over the nodes so far > 1e300)."""
    _horizon_terms(_as_matrix(h_s), grid)


def _sandwich(a, b, p, q, s):
    """Entries (0, 0), (1, 1) and (0, 1) of ``v x v^dag`` for ``x = [[p, q], [q*, s]]``
    (p, s real) and the right singular vectors ``v = [[a, -b*], [b, a*]]`` of
    ``top_singular_2x2``, written out elementwise.  The diagonal is real; entry
    (1, 0) of the Hermitian result is the conjugate of entry (0, 1)."""
    aa, bb = a.real**2 + a.imag**2, b.real**2 + b.imag**2
    re_abq = (a * b * q).real
    off = a * b.conj() * (p - s) + a * a * q - (b * b * q).conj()
    return aa * p + bb * s - 2.0 * re_abq, bb * p + aa * s + 2.0 * re_abq, off


def dilate(h_s, cfg: DilationConfig) -> DilationResult:
    """Run the full dilation pipeline for the constant 2x2 H_s on the grid.

    All metric-derived operators are evaluated in the singular basis of
    the inverse propagator (see module docstring), which keeps Lambda and
    Gamma accurate to roundoff regardless of how wide the metric spectrum
    becomes.
    """
    h_s = _as_matrix(h_s)
    grid = cfg.grid
    # W = eps1^{-1}; sigma_min = |det W| / sigma_max, |det W| = e^{-(t - t0) Im tr H_s}.
    elapsed, tau, a, cos_k, sin_k = _horizon_terms(h_s, grid)
    # W's entries e^{i tau s} (cos(k s) I + i sin(k s)/k A)_ij; the I_ij factors keep signed zeros.
    e, isin = np.exp(1j * tau * elapsed), 1j * sin_k
    w = [[e * (cos_k * float(i == j) + isin * a[i, j]) for j in (0, 1)] for i in (0, 1)]
    gp, gu, gq = gram_2x2(*w[0], *w[1])
    s_max, v0, v1 = top_singular_2x2(gp, gu, gq)
    sigma = np.stack([s_max, np.exp(-elapsed * np.trace(h_s).imag) / s_max], axis=1)
    del elapsed, cos_k, sin_k, s_max, e, isin, w
    mu_prime = float(np.min(sigma[:, -1] ** 2))
    m0 = (1.0 + MARGIN) / mu_prime
    d_eig = np.sqrt(m0 * sigma**2 - 1.0)  # eigenvalues of eta = sqrt(M - I), all >= ~sqrt(MARGIN)

    # H_s in the metric eigenbasis, ht = (V^dag H_s) V with the columns
    # (v0, v1), (-v1*, v0*) of V, then the entries p, q, s of the closed
    # forms Lambda~ +- Gamma~, one per ancilla sigma_z block (axis 1).
    (h00, h01), (h10, h11) = h_s
    c0, c1 = v0.conj(), v1.conj()
    x00, x01 = c0 * h00 + c1 * h10, c0 * h01 + c1 * h11
    x10, x11 = -v1 * h00 + v0 * h10, -v1 * h01 + v0 * h11
    ht00, ht01 = (x00 * v0 + x01 * v1)[:, None], (x00 * -c1 + x01 * c0)[:, None]
    ht10, ht11 = (x10 * v0 + x11 * v1)[:, None], (x10 * -c1 + x11 * c0)[:, None]
    del x00, x01, x10, x11, c0, c1, sigma
    sign = np.array([1.0, -1.0])
    d0, d1 = d_eig[:, :1], d_eig[:, 1:]
    p = ht00.real - sign * ht00.imag / d0
    s = ht11.real - sign * ht11.imag / d1
    q = ((d0 + 1j * sign) * ht01 + (d1 - 1j * sign) * ht10.conj()) / (d0 + d1)
    del ht00, ht01, ht10, ht11
    # H_sa = Lambda x I + Gamma x sigma_z as the Pauli coefficients of its
    # ancilla sigma_z blocks; y is -Im of entry (0, 1), +0.0 where that is 0.
    d00, d11, off = _sandwich(v0[:, None], v1[:, None], p, q, s)
    del p, q, s
    hsa = np.stack([(d00 + d11) / 2.0, off.real, 0.0 - off.imag, (d00 - d11) / 2.0], axis=-1)
    # M = m0 W^dag W, Hermitian by format.
    m = np.empty((len(gq), 2, 2), dtype=complex)
    m[:, 0, 0], m[:, 0, 1], m[:, 1, 1] = m0 * gp, m0 * gq, m0 * gu
    m[:, 1, 0] = m[:, 0, 1].conj()

    return DilationResult(
        m0=m0,
        mu_prime=mu_prime,
        grid=grid,
        m_series=OperatorSeries(grid, m),
        hsa_series=OperatorSeries(grid, hsa),
    )


def verify_dilation(result: DilationResult, h_s) -> DiagnosticsReport:
    """Numeric residuals of the dilation identities for the constant H_s,
    read off the Pauli coefficients c of H_sa's two ancilla blocks (a 4x4
    Frobenius norm is sqrt(2) ||c|| over both blocks) and of all four
    entries of M, entry by entry."""
    h_s = _as_matrix(h_s)
    dt = result.grid.dt
    hsa = result.hsa_series.data
    m = result.m_series.data

    def sq(x):
        """Squared Frobenius norm per node: one sum of squared moduli."""
        x = x.reshape(len(x), -1)
        return np.einsum("ij,ij->i", x.conj(), x).real

    # H - H^dag = 2i sum_i Im(c_i) sigma_i per block.
    hsa_norm = np.maximum(np.sqrt(sq(hsa)), 1e-300)
    herm = float(np.max(2.0 * np.sqrt(sq(np.imag(hsa))) / hsa_norm))

    # Metric ODE by central differences on interior nodes, relative to the
    # commutator scale: entry (i, j) of i dM/dt - H^dag M + M H.
    h, hd, mid, resid = h_s.tolist(), h_s.conj().T.tolist(), m[1:-1], 0.0
    for i, j in np.ndindex(2, 2):
        r = (m[2:, i, j] - m[:-2, i, j]) * (0.5j / dt)
        r -= hd[i][0] * mid[:, 0, j] + hd[i][1] * mid[:, 1, j]
        r += mid[:, i, 0] * h[0][j] + mid[:, i, 1] * h[1][j]
        resid = resid + (r.real**2 + r.imag**2)
    scale = np.maximum(np.sqrt(sq(mid)) * np.linalg.norm(h_s), 1.0)
    metric_ode = float(np.max(np.sqrt(resid) / scale))

    # H^(-+) + H^(+-) in the {|+>, |->} ancilla basis: sum_k 2 Re(<-|k><k|+>) B_k.
    c = 2.0 * (ANCILLA_MINUS.conj() * ANCILLA_PLUS).real
    block_antisym = float(np.max(np.sqrt(sq(c[0] * hsa[:, 0] + c[1] * hsa[:, 1])) / hsa_norm))
    return DiagnosticsReport(
        hermiticity=herm,
        metric_ode=metric_ode,
        block_antisym=block_antisym,
        min_eig_m_minus_i=result.m0 * result.mu_prime - 1.0,
    )
