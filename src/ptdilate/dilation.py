"""Hermitian dilation engine for a constant non-Hermitian 2x2 H_s.

The inverse propagator ``W(t) = exp(+i (t - t0) H_s)`` is evaluated in
closed form at every grid node: with ``tau = tr H_s / 2``,
``A = H_s - tau I`` and ``k = sqrt(-det A)``, ``A^2 = k^2 I`` gives
``W = e^{i tau s} (cos(k s) I + i sin(k s)/k A)``, ``s = t - t0``, and
``sin(k s)/k = s`` at the exceptional point ``k = 0``.  From ``W`` the
engine builds the metric operator ``M(t)`` and the time-dependent
dilated Hermitian Hamiltonian ``H_sa(t) = Lambda x I + Gamma x sigma_z``
on a uniform time grid; the operator pair ``Lambda(t), Gamma(t)`` comes
from the ancilla coupling ``eta(t) = sqrt(M(t) - I)`` and is kept only
inside H_sa.  H_sa leaves the two ancilla sigma_z levels uncoupled, so
it is stored as its two blocks ``[Lambda + Gamma, Lambda - Gamma]``;
``numkit.block_diag`` builds the 4x4 operator where one is needed.
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
cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import OperatorSeries, TimeGrid, block_diag

__all__ = [
    "SingularPropagator",
    "PositivityLost",
    "DilationConfig",
    "DilationResult",
    "DiagnosticsReport",
    "verify_dilation",
    "dilate",
]

# Ancilla basis of the dilation: |-> and |+> are the sigma_y eigenstates;
# the |-> branch is the post-selected one.
ANCILLA_MINUS = np.array([1.0, -1.0j]) / np.sqrt(2.0)
ANCILLA_PLUS = np.array([-1.0j, 1.0]) / np.sqrt(2.0)

_COND_LIMIT = 1e14


class SingularPropagator(RuntimeError):
    """Evolution operator numerically non-invertible (integration blow-up)."""


class PositivityLost(RuntimeError):
    """min eig(M - I) dropped to zero: m0 too small or grid too coarse."""


@dataclass(frozen=True)
class DilationConfig:
    grid: TimeGrid
    margin: float = 0.1  # safety factor in the M(0) selection

    def __post_init__(self):
        if not self.margin > 0:
            raise ValueError(f"margin must be > 0, got {self.margin}")


@dataclass
class DilationResult:
    m0: float
    mu_prime: float
    grid: TimeGrid
    m_series: OperatorSeries
    hsa_series: OperatorSeries  # (n_nodes, 2, 2, 2): Lambda + Gamma, Lambda - Gamma
    min_eig_m_minus_i: np.ndarray  # per node, from singular values (stable)
    presym_lambda: float  # max Hermiticity residual of Lambda before symmetrization
    presym_gamma: float


@dataclass
class DiagnosticsReport:
    """Max-over-grid residuals of the dilation identities (all relative)."""

    hermiticity: float  # H_sa vs its adjoint
    metric_ode: float  # i dM/dt = H^dag M - M H (central differences)
    block_antisym: float  # H^(-+) = -H^(+-) in the |+->, |-> ancilla basis
    min_eig_m_minus_i: float  # min over grid
    presym_lambda: float  # Hermiticity of Lambda before symmetrization
    presym_gamma: float


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


def _inverse_propagator(h_s: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """W(t_k) = eps1^{-1}(t_k) = expm(+i (t_k - t0) H_s) as (n_nodes, 2, 2).

    The closed form of the module docstring, ``k`` the principal root.
    """
    s = grid.times() - grid.t0
    tau = (h_s[0, 0] + h_s[1, 1]) / 2.0
    a = h_s - tau * np.eye(2)
    k = np.sqrt(a[0, 0] ** 2 + a[0, 1] * a[1, 0])  # -det A, as tr A = 0
    sin_k = np.sin(k * s) / k if k != 0 else s
    w = np.cos(k * s)[:, None, None] * np.eye(2) + (1j * sin_k)[:, None, None] * a
    return np.exp(1j * tau * s)[:, None, None] * w


def _hermitize(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().swapaxes(-1, -2)) / 2.0


def _herm_residual(x: np.ndarray) -> np.ndarray:
    num = np.linalg.norm(x - x.conj().swapaxes(-1, -2), axis=(-2, -1))
    den = np.maximum(np.linalg.norm(x, axis=(-2, -1)), 1e-300)
    return num / den


def ancilla_blocks(hsa: np.ndarray) -> dict[str, np.ndarray]:
    """System-space blocks of H_sa in the {|+>, |->} ancilla basis.

    ``hsa`` may be a single (2d x 2d) matrix or a stack; returns the four
    blocks keyed '++', '+-', '-+', '--'.
    """
    hsa = np.asarray(hsa)
    d = hsa.shape[-1] // 2
    resh = hsa.reshape(*hsa.shape[:-2], d, 2, d, 2)
    basis = (("+", ANCILLA_PLUS), ("-", ANCILLA_MINUS))
    return {
        la + lb: np.einsum("...ikjl,k,l->...ij", resh, a.conj(), b)
        for la, a in basis
        for lb, b in basis
    }


def dilate(h_s, cfg: DilationConfig, m0: float | None = None) -> DilationResult:
    """Run the full dilation pipeline for the constant 2x2 H_s on the grid.

    All metric-derived operators are evaluated in the singular basis of
    the inverse propagator (see module docstring), which keeps Lambda and
    Gamma accurate to roundoff regardless of how wide the metric spectrum
    becomes.
    """
    h_s = _as_matrix(h_s)
    grid = cfg.grid
    _, sigma, vh = np.linalg.svd(_inverse_propagator(h_s, grid))
    # The SVD's sigma_min carries sigma_max's absolute error; |det W| / sigma_max
    # with |det W| = e^{-(t - t0) Im tr H_s} is accurate to roundoff.
    sigma[:, -1] = np.exp(-(grid.times() - grid.t0) * np.trace(h_s).imag) / sigma[:, 0]
    # sigma_min can underflow to zero outright in the broken regime.
    with np.errstate(divide="ignore", over="ignore"):
        cond = sigma[:, 0] / np.maximum(sigma[:, -1], 5e-324)
    if np.max(cond) > _COND_LIMIT:
        t_bad = grid.times()[np.argmax(cond > _COND_LIMIT)]
        raise SingularPropagator(
            f"propagator condition number first exceeds {_COND_LIMIT:.0e} "
            f"at t = {t_bad:.6g}"
        )
    mu_prime = float(np.min(sigma[:, -1] ** 2))
    if m0 is None:
        m0 = (1.0 + cfg.margin) / mu_prime
    # (1 + margin) / mu' overflows to inf for a huge margin.
    if not 1.0 < m0 < np.inf:
        raise ValueError(f"m0 must be finite and exceed 1, got {m0} (margin = {cfg.margin})")

    v = vh.conj().swapaxes(-1, -2)
    s_eig = m0 * sigma**2  # eigenvalues of M(t), descending
    d_eig2 = s_eig - 1.0  # eigenvalues of M - I
    if float(np.min(d_eig2)) <= 0.0:
        raise PositivityLost(f"min eig(M - I) = {np.min(d_eig2):.3e} <= 0")
    d_eig = np.sqrt(d_eig2)

    ht = vh @ h_s @ v  # H_s in the metric eigenbasis
    hth = ht.conj().swapaxes(-1, -2)

    di = d_eig[:, :, None]
    dj = d_eig[:, None, :]
    pair = di + dj
    lam_t = (di * ht + dj * hth) / pair
    gam_t = 1j * (ht - hth) / pair

    lam = v @ lam_t @ vh
    gam = v @ gam_t @ vh
    # H_sa = Lambda x I + Gamma x sigma_z as its ancilla sigma_z blocks.
    lam_h, gam_h = _hermitize(lam), _hermitize(gam)
    hsa = np.stack([lam_h + gam_h, lam_h - gam_h], axis=1)
    m = _hermitize(v @ (s_eig[:, :, None] * np.eye(2)) @ vh)

    return DilationResult(
        m0=m0,
        mu_prime=mu_prime,
        grid=grid,
        m_series=OperatorSeries(grid, m),
        hsa_series=OperatorSeries(grid, hsa),
        min_eig_m_minus_i=d_eig2[:, -1].copy(),
        presym_lambda=float(np.max(_herm_residual(lam))),
        presym_gamma=float(np.max(_herm_residual(gam))),
    )


def verify_dilation(result: DilationResult, h_s) -> DiagnosticsReport:
    """Numeric residuals of the dilation identities for the constant H_s."""
    h_s = _as_matrix(h_s)
    dt = result.grid.dt
    hsa = block_diag(result.hsa_series.data)
    m = result.m_series.data

    hsa_norm = np.maximum(np.linalg.norm(hsa, axis=(-2, -1)), 1e-300)
    herm = float(np.max(_herm_residual(hsa)))

    # Metric ODE by central differences on interior nodes, relative to the
    # commutator scale.
    dm_fd = (m[2:] - m[:-2]) / (2.0 * dt)
    comm = h_s.conj().T @ m - m @ h_s
    resid = np.linalg.norm(1j * dm_fd - comm[1:-1], axis=(-2, -1))
    scale = np.maximum(
        np.linalg.norm(m[1:-1], axis=(-2, -1)) * np.linalg.norm(h_s), 1.0
    )
    metric_ode = float(np.max(resid / scale))

    blocks = ancilla_blocks(hsa)
    anti = np.linalg.norm(blocks["-+"] + blocks["+-"], axis=(-2, -1))
    block_antisym = float(np.max(anti / hsa_norm))

    return DiagnosticsReport(
        hermiticity=herm,
        metric_ode=metric_ode,
        block_antisym=block_antisym,
        min_eig_m_minus_i=float(np.min(result.min_eig_m_minus_i)),
        presym_lambda=result.presym_lambda,
        presym_gamma=result.presym_gamma,
    )
