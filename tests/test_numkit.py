"""Kernel-level tests: grids, eigensolvers, exponentials, block layout, Sylvester solves.

The eigensolver, square-root and Sylvester kernels belong to the
test-side reference oracle in ``reference_dilation``; the Pade ``expm``
is the test-side oracle in ``reference_expm``.
"""

import numpy as np
import pytest
from reference_dilation import (
    NotPositive,
    SingularPair,
    herm_eig,
    is_hermitian,
    sqrtm_psd,
    sylvester_hermitian,
)
from reference_expm import expm

from ptdilate.dilation import _inverse_propagator
from ptdilate.numkit import (
    NotHermitian,
    OperatorSeries,
    TimeGrid,
    block_diag,
    ordered_product,
    unitary_2x2,
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


class TestUnitary2x2:
    def test_matches_reference_on_random_stacks(self):
        rng = np.random.default_rng(23)
        stack = np.stack([random_hermitian(rng, 2) for _ in range(500)])
        for dt in (1.0, 0.1, 1e-3):
            u = unitary_2x2(stack, dt)
            assert relative_error(u, expm(-1j * dt * stack)) <= 1e-13
            assert unitarity_error(u) <= 1e-14

    def test_zero_and_scalar_identity(self):
        # omega = 0: the sinc form keeps sin(dt w)/w = dt exact.
        eye = np.eye(2)
        stack = np.stack([0.0 * eye, 2.5 * eye, -7.0 * eye])
        u = unitary_2x2(stack, 0.3)
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
        u = unitary_2x2(stack, dt)
        assert relative_error(u, expm(-1j * dt * stack)) <= 1e-13
        assert unitarity_error(u) <= 1e-14

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(31)
        stack = np.stack([random_hermitian(rng, 2) for _ in range(6)]).reshape(2, 3, 2, 2)
        u = unitary_2x2(stack, 0.5)
        assert u.shape == (2, 3, 2, 2)
        assert np.array_equal(u[1, 2], unitary_2x2(stack[1, 2], 0.5))


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
            w = _inverse_propagator(h_s, grid)
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
