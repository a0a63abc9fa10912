"""Kernel-level tests: grids, eigensolvers, exponentials, 2x2 products and
singular pairs, block layout, step chains, Sylvester solves.

The eigensolver, square-root and Sylvester kernels, and the stacked
singular vectors of ``right_singular_2x2`` (the package's
``top_singular_2x2`` on ``gram_2x2``), belong to the test-side reference
oracle in ``reference_dilation``; the Pade ``expm`` is the test-side
oracle in ``reference_expm``; the 2x2 product ``mul_2x2``, the
full-matrix step and chain kernels, the 4x4 block layout and the serial
step loop are the test-side oracle in ``reference_steps``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_dilation import (
    NotPositive,
    SingularPair,
    herm_eig,
    is_hermitian,
    right_singular_2x2,
    sqrtm_psd,
    sylvester_hermitian,
)
from reference_expm import expm
from reference_steps import (
    block_diag,
    chain_2x2,
    mul_2x2,
    ordered_product,
    su2_matrices,
    unitary_2x2,
)

from ptdilate import numkit
from ptdilate.dilation import _horizon_terms
from ptdilate.numkit import (
    NotHermitian,
    OperatorSeries,
    TimeGrid,
    chain_su2,
    su2_step,
)
from ptdilate.ptmodel import pt_hamiltonian

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


class TestTimeGrid:
    def test_dt_and_times(self):
        grid = TimeGrid(0.0, 8.0, 8001)
        assert grid.dt == pytest.approx(1e-3)
        ts = grid.times()
        assert ts[0] == 0.0 and ts[-1] == 8.0 and len(ts) == 8001

    @pytest.mark.parametrize("t0,t1,n", [(0.0, 0.0, 10), (1.0, 0.0, 10), (0.0, 1.0, 1)])
    def test_rejects_bad_spans(self, t0, t1, n):
        with pytest.raises(ValueError):
            TimeGrid(t0, t1, n)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_node_times_match_linspace_bitwise(self, data):
        # A chunk's fine times, or every B-th node from an anchor, rebuilt
        # as k dt + t0 (the last node t1) without the whole grid: bit for
        # bit np.linspace's, over spans from tiny to huge and any slice.
        span = st.floats(-1e150, 1e150, allow_nan=False)
        t0, t1 = data.draw(span), data.draw(span)
        assume(t1 > t0)
        grid = TimeGrid(t0, t1, data.draw(st.integers(2, 100_000)))
        assume(grid.dt > 0.0)  # dt underflows only on a span of a few subnormals
        start = data.draw(st.integers(0, grid.n_nodes))
        stop = data.draw(st.integers(start, grid.n_nodes))
        step = data.draw(st.sampled_from([1, 1024]) | st.integers(1, grid.n_nodes))
        got = grid.node_times(start, stop, step)
        want = grid.times()[start:stop:step]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_series_length_must_match(self):
        grid = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            OperatorSeries(grid, np.zeros((4, 2, 2)))


class TestHermEig:
    def test_diagonal_case(self):
        w, _ = herm_eig(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(w, [1.0, 3.0])

    def test_pauli_spectrum(self):
        w, _ = herm_eig(SIGMA_Y)
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(rng, 4)
        w, v = herm_eig(m)
        assert np.max(np.abs((v * w[None, :]) @ v.conj().T - m)) < 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_tolerance_scales_with_magnitude(self):
        # A legitimately Hermitian matrix of huge norm carries roundoff of
        # order eps * norm and must still pass.
        rng = np.random.default_rng(3)
        m = 1e13 * random_hermitian(rng, 2)
        m[0, 1] += 1e-3  # below 1e-10 relative to the 1e13 scale
        herm_eig(m)

    def test_is_hermitian_predicate(self):
        assert is_hermitian(SIGMA_Y, 0.0)
        tilted = SIGMA_Y.copy()
        tilted[0, 1] += 1e-6
        assert not is_hermitian(tilted, 1e-9)


class TestExpm:
    def test_zero_gives_identity(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent_closed_form(self):
        # exp([[0, a], [0, 0]]) = I + the nilpotent part, exactly.
        a = np.array([[0.0, 2.5], [0.0, 0.0]])
        assert np.max(np.abs(expm(a) - (np.eye(2) + a))) < 1e-15

    def test_pauli_rotation_closed_form(self):
        # exp(-i theta sigma_y) = cos(theta) I - i sin(theta) sigma_y.
        theta = 0.7
        expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SIGMA_Y
        assert np.max(np.abs(expm(-1j * theta * SIGMA_Y) - expected)) < 1e-14

    def test_matches_eigendecomposition_for_hermitian(self):
        rng = np.random.default_rng(5)
        m = 3.0 * random_hermitian(rng, 4)
        w, v = np.linalg.eigh(m)
        expected = (v * np.exp(-1j * w)[None, :]) @ v.conj().T
        assert np.max(np.abs(expm(-1j * m) - expected)) < 1e-13

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        batched = expm(stack)
        for k in range(6):
            assert np.max(np.abs(batched[k] - expm(stack[k]))) < 1e-13

    def test_group_property(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = expm(a)
        rhs = expm(a / 2.0) @ expm(a / 2.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))


def relative_error(u, ref):
    err = np.linalg.norm(u - ref, axis=(-2, -1))
    return float(np.max(err / np.linalg.norm(ref, axis=(-2, -1))))


def unitarity_error(u):
    eye = np.eye(u.shape[-1])
    return float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - eye)))


def hermitian_parts(h):
    """(a, z, x) of Hermitian 2x2 blocks h = a I + z sz + Re(x) sx + Im(x) sy."""
    d0, d1 = h[..., 0, 0].real, h[..., 1, 1].real
    return (d0 + d1) / 2.0, (d0 - d1) / 2.0, h[..., 1, 0]


def phase_times_pair(a, z, x, dt):
    """exp(-i dt h) as the phase e^{-i dt a} times the 2x2 step of its SU(2) pair."""
    return np.exp(-1j * dt * np.asarray(a))[..., None, None] * su2_matrices(su2_step(z, x, dt))


@st.composite
def hermitian_block_parts(draw):
    """(a, z, x, dt) of 64 Hermitian blocks at one magnitude 10^k, k from
    -320 (subnormal) to 300: rows 0-7 have z = x = 0 (w = 0), rows 8-15 a
    subnormal z and x, rows 16-23 a z 1e9 times x, and dt keeps
    dt max(|a|, w) at most 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-320, 300))
    a, z, xr, xi = rng.normal(size=(4, 64)) * scale
    x = xr + 1j * xi
    z[:8] = x[:8] = 0.0
    z[8:16] = 5e-324 * rng.integers(-9, 10, size=8)
    x[8:16] = 5e-324 * (rng.integers(-9, 10, size=8) + 1j * rng.integers(-9, 10, size=8))
    x[16:24] *= 1e-9
    top = float(np.max(np.maximum(np.abs(a), np.hypot(z, np.abs(x)))))
    theta = draw(st.floats(1e-6, 3.0))
    return a, z, x, theta / top if top >= 1e-300 else theta


class TestUnitary2x2:
    """The 2x2 step exp(-i dt h), taken as a phase times an SU(2) pair."""

    def test_matches_reference_on_random_stacks(self):
        rng = np.random.default_rng(23)
        stack = np.stack([random_hermitian(rng, 2) for _ in range(500)])
        for dt in (1.0, 0.1, 1e-3):
            u = phase_times_pair(*hermitian_parts(stack), dt)
            assert relative_error(u, expm(-1j * dt * stack)) <= 1e-13
            assert unitarity_error(u) <= 1e-14

    def test_zero_and_scalar_identity(self):
        # omega = 0: the sinc form keeps sin(dt w)/w = dt exact, and the pair
        # is exactly (1, 0).
        eye = np.eye(2)
        stack = np.stack([0.0 * eye, 2.5 * eye, -7.0 * eye])
        a, z, x = hermitian_parts(stack)
        assert np.array_equal(su2_step(z, x, 0.3), np.tile([1.0, 0.0], (3, 1)))
        u = phase_times_pair(a, z, x, 0.3)
        assert np.array_equal(u[0], eye.astype(complex))
        assert relative_error(u, expm(-1j * 0.3 * stack)) <= 1e-13
        assert unitarity_error(u) <= 1e-14

    def test_lab_scale_step(self):
        # A lab-frame block: GHz-scale splitting, MHz-scale drive, dt w ~ 0.1.
        rng = np.random.default_rng(29)
        z = 4.5e3
        drive = rng.uniform(-10.0, 10.0, size=200)
        stack = np.zeros((200, 2, 2), dtype=complex)
        stack[:, 0, 0], stack[:, 1, 1] = z - 12.6, -z - 12.6
        stack[:, 0, 1] = stack[:, 1, 0] = drive
        dt = 0.1 / z
        u = phase_times_pair(-12.6, z, drive, dt)
        assert relative_error(u, expm(-1j * dt * stack)) <= 1e-13
        assert unitarity_error(u) <= 1e-14

    def test_traceless_steps_equal_full_matrix_kernel_bitwise(self):
        # The lab audit's blocks are traceless with real drives; there the
        # pair is entry for entry the full closed form of reference_steps.
        rng = np.random.default_rng(30)
        z = np.array([4.5e3, -4.4e3])
        drive = rng.uniform(-20.0, 20.0, size=(1000, 2))
        blocks = np.zeros((1000, 2, 2, 2), dtype=complex)
        blocks[..., 0, 0], blocks[..., 1, 1] = z, -z
        blocks[..., 0, 1] = blocks[..., 1, 0] = drive
        assert np.array_equal(su2_matrices(su2_step(z, drive, 1e-5)), unitary_2x2(blocks, 1e-5))

    def test_peak_memory_per_block(self):
        # The pair takes 32 B per 2x2 block, and w, |x| and the sinc
        # temporaries (8 B each) are dropped once used: 64 B in all.  The
        # full 2x2 closed form peaked at 108 B per block.
        rng = np.random.default_rng(37)
        z = rng.normal(size=(16384, 2))
        x = rng.normal(size=(16384, 2)) + 1j * rng.normal(size=(16384, 2))
        tracemalloc.start()
        try:
            su2_step(z, x, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 72 * 2 * 16384

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(31)
        stack = np.stack([random_hermitian(rng, 2) for _ in range(6)]).reshape(2, 3, 2, 2)
        _, z, x = hermitian_parts(stack)
        pair = su2_step(z, x, 0.5)
        assert pair.shape == (2, 3, 2)
        assert np.array_equal(pair[1, 2], su2_step(z[1, 2], x[1, 2], 0.5))

    @settings(max_examples=60, deadline=None)
    @given(hermitian_block_parts())
    def test_phase_times_pair_matches_reference(self, parts):
        # Within the full closed form's bounds, from subnormal to huge
        # entries, at w = 0 and with z dominating x.
        a, z, x, dt = parts
        h = np.zeros((len(z), 2, 2), dtype=complex)
        h[:, 0, 0], h[:, 1, 1] = a + z, a - z
        h[:, 1, 0], h[:, 0, 1] = x, x.conj()
        u = phase_times_pair(a, z, x, dt)
        assert relative_error(u, expm(-1j * dt * h)) <= 1e-13
        assert unitarity_error(u) <= 1e-14
        assert np.array_equal(su2_step(z[:8], x[:8], dt), np.tile([1.0, 0.0], (8, 1)))


class TestMul2x2:
    def test_matches_matmul_on_broadcast_stacks(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(5, 1, 2, 2)) + 1j * rng.normal(size=(5, 1, 2, 2))
        b = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        prod = mul_2x2(a, b)
        assert prod.shape == (5, 3, 2, 2)
        assert np.max(np.abs(prod - a @ b)) <= 1e-15 * np.max(np.abs(a)) * np.max(np.abs(b)) * 4
        assert np.array_equal(mul_2x2(a[0, 0], b), mul_2x2(a[:1, :1], b)[0])


@st.composite
def complex_2x2_stacks(draw):
    """(n, 2, 2) complex stacks: each matrix is random, rescaled by up to
    10^+-100, and for half of them the second column is pushed to within
    ``eps`` of a multiple of the first (near-singular, or exactly so)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 64
    w = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    eps = draw(st.sampled_from([0.0, 1e-15, 1e-8, 1e-3]))
    near = w[: n // 2]
    near[:, :, 1] = (rng.normal() + 1j * rng.normal()) * near[:, :, 0] + eps * near[:, :, 1]
    return w * 10.0 ** draw(st.integers(-100, 100))


class TestRightSingular2x2:
    @settings(max_examples=40, deadline=None)
    @given(complex_2x2_stacks())
    def test_matches_lapack_svd(self, w):
        sigma, v = right_singular_2x2(w)
        _, sig_ref, vh_ref = np.linalg.svd(w)
        assert np.max(np.abs(sigma - sig_ref[:, 0]) / sig_ref[:, 0]) <= 1e-14
        assert unitarity_error(v) <= 1e-15
        # The top right singular vector is fixed up to a phase wherever the
        # two singular values are apart.
        gap = (sig_ref[:, 0] - sig_ref[:, 1]) / sig_ref[:, 0] >= 1e-6
        overlap = np.abs(np.sum(vh_ref[:, 0, :] * v[:, :, 0], axis=-1))
        assert np.max(np.abs(overlap[gap] - 1.0)) <= 1e-12
        # sigma_max is the norm of w along v, and v's second column spans
        # the rest: w v stays within roundoff of (sigma_max, sigma_min).
        wv = np.linalg.norm(w @ v, axis=-2)
        assert np.max(np.abs(wv[:, 0] - sigma) / sigma) <= 1e-14

    @pytest.mark.parametrize("c", [0.0, 1.0, 3.5e-100, 2e100])
    def test_scalar_gram_takes_unit_basis(self, c):
        # G = W^dag W = c^2 I (W = 0 among them) has no preferred
        # direction: v is exactly I.
        units = [np.eye(2), np.diag([1j, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
        sigma, v = right_singular_2x2(c * np.stack(units).astype(complex))
        assert np.all(np.abs(sigma - c) <= 2.3e-16 * c)
        assert np.array_equal(v, np.broadcast_to(np.eye(2), (3, 2, 2)))

    def test_scalar_gram_to_rounding_takes_unit_basis(self):
        # A unitary W with subnormal noise off its real part: G = I up to a
        # subnormal q, whose direction is noise and would not normalize.
        tiny = 2 * 5e-324
        w = np.array([[-0.8 - tiny * 1j, -tiny + 0.6j], [-tiny + 0.6j, -0.8 - tiny * 1j]])
        sigma, v = right_singular_2x2(w[None])
        assert sigma[0] == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(v[0], np.eye(2))


class TestBlockDiag:
    def test_matches_kronecker_form_exactly(self):
        # The blocks Lambda +- Gamma are H_sa = Lambda x I + Gamma x sz.
        rng = np.random.default_rng(41)
        lam = np.stack([random_hermitian(rng, 2) for _ in range(50)])
        gam = np.stack([random_hermitian(rng, 2) for _ in range(50)])
        sz = np.diag([1.0, -1.0])
        kron = np.stack([np.kron(x, np.eye(2)) + np.kron(y, sz) for x, y in zip(lam, gam)])
        assert np.array_equal(block_diag(np.stack([lam + gam, lam - gam], axis=1)), kron)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(\.\.\., 2, 2, 2\)"):
            block_diag(np.zeros((3, 4, 4)))


class TestSqrtmPsd:
    def test_square_roundtrip(self):
        rng = np.random.default_rng(13)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = b @ b.conj().T
        root = sqrtm_psd(m)
        assert is_hermitian(root, 1e-12)
        assert np.max(np.abs(root @ root - m)) < 1e-10

    def test_clamps_tiny_negative_eigenvalues(self):
        m = np.diag([1.0, -1e-14]).astype(complex)
        root = sqrtm_psd(m)
        assert root[1, 1] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositive):
            sqrtm_psd(np.diag([1.0, -0.5]).astype(complex))


class TestSylvester:
    def test_roundtrip_against_forward_product(self):
        rng = np.random.default_rng(17)
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = b @ b.conj().T + 0.5 * np.eye(3)
        x_true = random_hermitian(rng, 3)
        c = a @ x_true + x_true @ a
        x = sylvester_hermitian(a, c)
        assert np.max(np.abs(x - x_true)) < 1e-12

    def test_rejects_singular_pair(self):
        with pytest.raises(SingularPair):
            sylvester_hermitian(np.diag([1.0, 0.0]).astype(complex), np.eye(2))


class TestOrderedPropagator:
    def test_constant_generator_equals_expm(self):
        # The dilation's closed-form inverse propagator is
        # W(t) = expm(+i (t - t0) H_s) at every node, on both sides of and
        # exactly at the exceptional point r = 1.
        rng = np.random.default_rng(19)
        hams = [pt_hamiltonian(r) for r in (0.0, 0.6, 1.0, 1.4, 1 - 1e-12, 1 + 1e-12)]
        hams.append(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        grid = TimeGrid(-1.0, 7.0, 801)
        s = grid.times() - grid.t0
        for h_s in hams:
            # Assembled from the checked terms as dilate assembles it.
            _, tau, a, cos_k, sin_k = _horizon_terms(h_s, grid)
            c = cos_k[:, None, None] * np.eye(2) + (1j * sin_k)[:, None, None] * a
            w = np.exp(1j * tau * s)[:, None, None] * c
            ref = expm(1j * s[:, None, None] * h_s)
            err = np.linalg.norm(w - ref, axis=(-2, -1))
            assert np.max(err / np.linalg.norm(ref, axis=(-2, -1))) <= 1e-12


class TestOrderedProduct:
    def test_matches_left_multiplied_loop(self):
        rng = np.random.default_rng(21)
        steps = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        for init in (np.eye(3), rng.normal(size=3)):
            out = ordered_product(steps, init)
            assert out.shape == (6, *init.shape)
            ref = init.astype(complex)
            assert np.array_equal(out[0], ref)
            for k in range(5):
                ref = steps[k] @ ref
                assert np.array_equal(out[k + 1], ref)


# Chain lengths: chain_su2 splits n steps into chunks of n.bit_length().
# n = 0 is the empty chain; 15/16, 255/256/257 and 16,383/16,384/16,385
# sit where the chunk length changes.  1, 2, 8, 1000 and 40,000 split
# exactly; the rest, 13,656 (the lab audit's last chunk) and 16,384 (its
# full chunk) among them, pad a shorter last chunk.
CHAIN_SIZES = [
    0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 130, 255, 256, 257, 1000, 13656, 16383, 16384, 16385, 40000
]


def random_pairs(rng, shape):
    """SU(2) pairs of random traceless steps, dt w of order 1."""
    z = rng.normal(size=shape)
    return su2_step(z, rng.normal(size=shape) + 1j * rng.normal(size=shape), 0.7)


class TestChain2x2:
    """Chains of 2x2 steps, carried as SU(2) pairs by ``chain_su2``."""

    @pytest.mark.parametrize("n", CHAIN_SIZES)
    def test_block_chains_match_serial_4x4_product(self, n):
        # Block k acts on the amplitudes whose second tensor factor is k,
        # i.e. state.reshape(2, 2)[:, k].
        rng = np.random.default_rng(n)
        pairs = random_pairs(rng, (n, 2))
        init = rng.normal(size=4) + 1j * rng.normal(size=4)
        init /= np.linalg.norm(init)
        out = chain_su2(pairs, init.reshape(2, 2).T)
        assert out.shape == (n + 1, 2, 2)
        ref = ordered_product(block_diag(su2_matrices(pairs)), init)
        assert np.max(np.abs(out.swapaxes(-1, -2).reshape(-1, 4) - ref)) <= 1e-13

    @pytest.mark.parametrize("n", CHAIN_SIZES)
    def test_single_chain_matches_serial_product(self, n):
        rng = np.random.default_rng(n + 1)
        pairs = random_pairs(rng, (n,))
        init = np.array([0.6, 0.8j])
        out = chain_su2(pairs, init)
        assert out.shape == (n + 1, 2)
        assert np.array_equal(out[0], init)
        assert np.max(np.abs(out - ordered_product(su2_matrices(pairs), init))) <= 1e-13

    def test_extra_batch_axis_matches_serial_product(self):
        n = 130
        rng = np.random.default_rng(n + 2)
        pairs = random_pairs(rng, (n, 3, 2))
        init = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        out = chain_su2(pairs, init)
        assert out.shape == (n + 1, 3, 2, 2)
        ref = ordered_product(su2_matrices(pairs), init[..., None])[..., 0]
        assert np.max(np.abs(out - ref)) <= 1e-13

    @pytest.mark.parametrize("n", [0, 1, 3, 17, 257, 13656, 16384])
    def test_equals_full_matrix_chain_bitwise(self, n):
        # Every pair product is the first column of the full product, formed
        # from the same complex products, so the two scans agree bit for bit.
        rng = np.random.default_rng(n + 3)
        pairs = random_pairs(rng, (n, 2))
        init = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.array_equal(chain_su2(pairs, init), chain_2x2(su2_matrices(pairs), init))

    @pytest.mark.parametrize("n", [0, 1, 3, 17, 257, 13656, 16384])
    def test_writes_into_a_transposed_trajectory_view(self, n):
        # The evolution hands over its (n + 1, 4) rows viewed as [node,
        # block, level]: every state, the padded last chunk's too, lands
        # there bit for bit as in a new array, and nothing else is written.
        rng = np.random.default_rng(n + 4)
        pairs = random_pairs(rng, (n, 2))
        init = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rows = np.full((n + 3, 4), np.nan, dtype=complex)
        view = rows[1:-1].reshape(-1, 2, 2).swapaxes(-1, -2)
        assert chain_su2(pairs, init, view) is view
        assert np.array_equal(view, chain_su2(pairs, init))
        assert np.all(np.isnan(rows[[0, -1]]))

    def test_work_is_linear_in_steps(self, monkeypatch):
        # A doubling scan forms ~n log2(n) products (~13n here); the
        # two-level scan forms (L - 1) m over m chunks of L = n.bit_length()
        # and under m log2(m) more for the chunk totals, ~1.5n.
        n = 16384
        products = 0
        mul = numkit._mul_su2

        def counting_mul(p, q):
            nonlocal products
            out = mul(p, q)
            products += out[0].size
            return out

        monkeypatch.setattr(numkit, "_mul_su2", counting_mul)
        chain_su2(random_pairs(np.random.default_rng(5), (n,)), np.array([1.0, 0.0]))
        assert 0 < products <= 2 * n

    def test_passes_grow_with_log_n(self, monkeypatch):
        # L - 1 prefix passes over chunks of L = n.bit_length() steps and
        # ~log2(n / L) doubling passes over the chunk totals: 25 calls here.
        n = 16384
        calls = 0
        mul = numkit._mul_su2

        def counting_mul(p, q):
            nonlocal calls
            calls += 1
            return mul(p, q)

        monkeypatch.setattr(numkit, "_mul_su2", counting_mul)
        chain_su2(random_pairs(np.random.default_rng(6), (n,)), np.array([1.0, 0.0]))
        assert 0 < calls <= 2 * n.bit_length()

    def test_peak_memory_per_step(self):
        # The chunk-major copy of the pairs (64 B per step of two blocks)
        # and the result (64 B) span the chain; the chunk totals, the
        # entering states, each pass's product and numpy's iterator buffers
        # add ~22 B here.  The full 2x2 steps peaked at 214 B.
        n = 16384
        pairs = random_pairs(np.random.default_rng(7), (n, 2))
        init = np.array([[0.6, 1.0], [0.8j, 0.0]])
        tracemalloc.start()
        try:
            chain_su2(pairs, init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160 * n

