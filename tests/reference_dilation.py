"""Test-side reference oracle: the dilation formulas evaluated directly.

``ptdilate.dilation.dilate`` evaluates Lambda/Gamma in the singular basis
of the inverse propagator.  This module evaluates the defining formulas
as written, with the Hermitian eigensolver, PSD square root and
Sylvester kernels they need.  It is accurate while the metric is
moderately conditioned, which is where the tests compare the two routes.
``ancilla_blocks`` rewrites H_sa in the {|+>, |->} ancilla basis, for the
block-structure test.  ``horizon_first_bad`` is the propagator horizon
check done with singular values, the oracle for the closed-form
``check_horizon``.  ``right_singular_2x2`` stacks the package's top right
singular vector into V, and ``dilate_stacked`` is ``dilate`` on those
(n, 2, 2) stacks: two ``mul_2x2`` products for V^dag H_s V and
M = V diag(m0 sigma^2) V^dag.  Imported by the tests; not itself a test
module.
"""

import mpmath as mp
import numpy as np

from reference_steps import mul_2x2

from ptdilate.dilation import ANCILLA_MINUS, ANCILLA_PLUS, MARGIN, _horizon_terms, _sandwich
from ptdilate.numkit import NotHermitian, OperatorSeries, gram_2x2, top_singular_2x2


class NotPositive(ValueError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class SingularPair(ValueError):
    """An eigenvalue pair sum is too small to divide by."""


def is_hermitian(m: np.ndarray, tol: float) -> bool:
    """max |M - M^dagger| <= tol, elementwise."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= tol)


def herm_eig(m: np.ndarray, tol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues).

    Raises NotHermitian if ``m`` deviates from Hermiticity by more than
    ``tol`` relative to its magnitude (floor 1), so matrices of any scale
    pass at roundoff level.  Returns ``(w, v)`` with orthonormal
    eigenvector columns.
    """
    m = np.asarray(m, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    if not is_hermitian(m, tol * scale):
        raise NotHermitian(f"matrix is not Hermitian within tol={tol}")
    return np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)


def sqrtm_psd(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-thresh, 0)`` are clamped to zero, where ``thresh``
    scales ``tol`` by the largest eigenvalue magnitude; anything below
    raises NotPositive.
    """
    w, v = herm_eig(m)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    thresh = tol * scale
    if np.min(w) < -thresh:
        raise NotPositive(f"eigenvalue {np.min(w)} below -{thresh}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def sylvester_hermitian(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve A X + X A = C for Hermitian X, with A Hermitian positive definite.

    In A's eigenbasis the solution is elementwise: X_ij = C_ij/(l_i + l_j).
    Raises SingularPair when an eigenvalue pair sum is numerically zero.
    """
    w, v = herm_eig(a)
    pair = w[..., :, None] + w[..., None, :]
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if np.min(pair) <= 1e-14 * scale:
        raise SingularPair(f"eigenvalue pair sum {np.min(pair)} too small")
    vh = v.conj().swapaxes(-1, -2)
    x = v @ ((vh @ c @ v) / pair) @ vh
    return (x + x.conj().swapaxes(-1, -2)) / 2.0


def eta_series(
    m_ser: OperatorSeries, h_s: np.ndarray
) -> tuple[OperatorSeries, OperatorSeries]:
    """eta = sqrt(M - I) and its derivative from the Sylvester equation.

    ``h_s`` is a constant H_s.  dM/dt is taken analytically from the
    metric ODE, ``dM/dt = -i (H^dag M - M H)``, and deta solves
    ``eta X + X eta = dM/dt``, avoiding differencing noise.
    """
    h = np.asarray(h_s, dtype=complex)
    eye = np.eye(m_ser.data.shape[-1], dtype=complex)
    etas = np.empty_like(m_ser.data)
    detas = np.empty_like(m_ser.data)
    for k, m in enumerate(m_ser.data):
        etas[k] = sqrtm_psd(m - eye)
        dm = -1j * (h.conj().T @ m - m @ h)
        dm = (dm + dm.conj().T) / 2.0
        detas[k] = sylvester_hermitian(etas[k], dm)
    return OperatorSeries(m_ser.grid, etas), OperatorSeries(m_ser.grid, detas)


def lambda_gamma(
    h_s: np.ndarray,
    m_ser: OperatorSeries,
    eta: OperatorSeries,
    deta: OperatorSeries,
) -> tuple[OperatorSeries, OperatorSeries, np.ndarray]:
    """Direct evaluation of the dilation operator pair for a constant H_s.

    Lambda = {H + [i deta + eta H] eta} M^{-1} and
    Gamma  = i [H eta - eta H - i deta] M^{-1}; both are
    Hermitian-symmetrized.  Also returns Lambda's per-node relative
    Hermiticity residual before symmetrization.
    """
    h = np.asarray(h_s, dtype=complex)[None]
    minv = np.linalg.inv(m_ser.data)
    lam = (h + (1j * deta.data + eta.data @ h) @ eta.data) @ minv
    gam = 1j * (h @ eta.data - eta.data @ h - 1j * deta.data) @ minv
    lam_s = OperatorSeries(m_ser.grid, (lam + lam.conj().swapaxes(-1, -2)) / 2.0)
    gam_s = OperatorSeries(m_ser.grid, (gam + gam.conj().swapaxes(-1, -2)) / 2.0)
    num = np.linalg.norm(lam - lam.conj().swapaxes(-1, -2), axis=(-2, -1))
    return lam_s, gam_s, num / np.maximum(np.linalg.norm(lam, axis=(-2, -1)), 1e-300)


def hsa_blocks_mp(h_s: np.ndarray, t: float, m0: float, dps: int = 50) -> np.ndarray:
    """H_sa's ancilla blocks ``[Lambda + Gamma, Lambda - Gamma]`` at time t
    (t0 = 0), by the defining formulas above in ``dps``-digit arithmetic.

    M = m0 W^dag W with W = expm(i t H_s), eta = sqrt(M - I) from the
    Hermitian eigensolver, and deta from the Sylvester equation in eta's
    eigenbasis.  At 50 digits this stays exact to double precision while
    cond M is far past 1e14.  Returns a complex (2, 2, 2) array.
    """
    with mp.workdps(dps):
        h = mp.matrix(np.asarray(h_s, dtype=complex).tolist())
        w = mp.expm(1j * mp.mpf(t) * h)
        m = mp.mpf(m0) * w.H * w
        e, q = mp.eighe((m + m.H) / 2)
        d = [mp.sqrt(e[k] - 1) for k in range(2)]
        eta = q * mp.diag(d) * q.H
        c = q.H * (-1j * (h.H * m - m * h)) * q
        deta = q * mp.matrix([[c[i, j] / (d[i] + d[j]) for j in range(2)] for i in range(2)]) * q.H
        minv = mp.inverse(m)
        lam = (h + (1j * deta + eta * h) * eta) * minv
        gam = 1j * (h * eta - eta * h - 1j * deta) * minv
        lam, gam = (lam + lam.H) / 2, (gam + gam.H) / 2
        return np.array([[[complex(x[i, j]) for j in range(2)] for i in range(2)]
                         for x in (lam + gam, lam - gam)])


def ancilla_blocks(blocks: np.ndarray) -> dict[str, np.ndarray]:
    """System-space blocks of H_sa in the {|+>, |->} ancilla basis, keyed
    '++', '+-', '-+', '--', from its ancilla sigma_z blocks B_k stacked as
    (..., 2, 2, 2): the (a, b) block is sum_k conj(a_k) b_k B_k."""
    blocks = np.asarray(blocks)
    if blocks.shape[-3:] != (2, 2, 2):
        raise ValueError(f"expected blocks of shape (..., 2, 2, 2), got shape {blocks.shape}")
    basis = (("+", ANCILLA_PLUS), ("-", ANCILLA_MINUS))
    return {
        la + lb: c[0] * blocks[..., 0, :, :] + c[1] * blocks[..., 1, :, :]
        for la, a in basis
        for lb, b in basis
        for c in [a.conj() * b]
    }


def horizon_first_bad(h_s: np.ndarray, grid, limit: float = 1e14) -> int | None:
    """Index of the first node where cond W = sigma_max / sigma_min of
    W = expm(i (t - t0) H_s) is not <= ``limit`` (an overflowed W counts),
    or None when every node passes.

    W is built at every node from its closed form (see ``ptdilate.dilation``),
    sigma_max comes from ``right_singular_2x2`` and
    sigma_min = |det W| / sigma_max with |det W| = e^{-(t - t0) Im tr H_s}.
    """
    h_s = np.asarray(h_s, dtype=complex)
    s = grid.times() - grid.t0
    tau = (h_s[0, 0] + h_s[1, 1]) / 2.0
    a = h_s - tau * np.eye(2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k = np.sqrt(a[0, 0] ** 2 + a[0, 1] * a[1, 0])
        sin_k = np.sin(k * s) / k if k != 0 else s
        w = np.cos(k * s)[:, None, None] * np.eye(2) + (1j * sin_k)[:, None, None] * a
        s_max, _ = right_singular_2x2(np.exp(1j * tau * s)[:, None, None] * w)
        s_min = np.exp(-s * np.trace(h_s).imag) / s_max
        cond = s_max / np.maximum(s_min, 5e-324)  # sigma_min can underflow to 0
    bad = ~(cond <= limit)
    return int(np.argmax(bad)) if np.any(bad) else None


def right_singular_2x2(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma_max and the right singular vectors ``v`` of a (..., 2, 2) stack:
    the package's ``gram_2x2`` and ``top_singular_2x2``, with the columns
    (v0, v1) and (-v1*, v0*) stacked into ``v``."""
    entries = (w[..., 0, 0], w[..., 0, 1], w[..., 1, 0], w[..., 1, 1])
    s_max, v0, v1 = top_singular_2x2(*gram_2x2(*entries))
    v = np.stack([np.stack([v0, -v1.conj()], -1), np.stack([v1, v0.conj()], -1)], -2)
    return s_max, v


def dilate_stacked(h_s: np.ndarray, grid) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(m0, mu', M, H_sa coefficients) of ``ptdilate.dilation.dilate`` on 2x2 stacks.

    The same steps as the package, in the same order, but through the
    stacked ``v``: ``ht = (V^dag H_s) V`` by two ``mul_2x2`` products, and
    ``M = V diag(m0 sigma^2) V^dag`` by a second ``_sandwich`` pass.
    """
    h_s = np.asarray(h_s, dtype=complex)
    elapsed, tau, a, cos_k, sin_k = _horizon_terms(h_s, grid)
    s_max, v = right_singular_2x2(
        np.exp(1j * tau * elapsed)[:, None, None]
        * (cos_k[:, None, None] * np.eye(2) + (1j * sin_k)[:, None, None] * a)
    )
    sigma = np.stack([s_max, np.exp(-elapsed * np.trace(h_s).imag) / s_max], axis=1)
    mu_prime = float(np.min(sigma[:, -1] ** 2))
    m0 = (1.0 + MARGIN) / mu_prime
    s_eig = m0 * sigma**2
    d_eig = np.sqrt(s_eig - 1.0)
    ht = mul_2x2(mul_2x2(v.conj().swapaxes(-1, -2), h_s), v)[:, None]
    sign = np.array([1.0, -1.0])
    d0, d1 = d_eig[:, :1], d_eig[:, 1:]
    p = ht[..., 0, 0].real - sign * ht[..., 0, 0].imag / d0
    s = ht[..., 1, 1].real - sign * ht[..., 1, 1].imag / d1
    q = ((d0 + 1j * sign) * ht[..., 0, 1] + (d1 - 1j * sign) * ht[..., 1, 0].conj()) / (d0 + d1)
    vb = v[:, None]
    d00, d11, off = _sandwich(vb[..., 0, 0], vb[..., 1, 0], p, q, s)
    hsa = np.stack([(d00 + d11) / 2.0, off.real, 0.0 - off.imag, (d00 - d11) / 2.0], axis=-1)
    m00, m11, m01 = _sandwich(v[..., 0, 0], v[..., 1, 0], s_eig[:, 0], 0.0, s_eig[:, 1])
    m = np.stack([np.stack([m00, m01], -1), np.stack([m01.conj(), m11], -1)], -2)
    return m0, mu_prime, m, hsa
