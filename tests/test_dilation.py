"""Dilation-pipeline tests: metric selection, operator identities, routes."""

import cmath
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_dilation import (
    ancilla_blocks,
    dilate_stacked,
    eta_series,
    horizon_first_bad,
    hsa_blocks_mp,
    lambda_gamma,
)
from reference_expm import expm
from reference_pauli import hsa_blocks
from reference_steps import block_diag, mul_2x2

from ptdilate.dilation import (
    ANCILLA_MINUS,
    ANCILLA_PLUS,
    MARGIN,
    DilationConfig,
    SingularPropagator,
    check_horizon,
    dilate,
    verify_dilation,
)
from ptdilate.numkit import OperatorSeries, TimeGrid
from ptdilate.ptmodel import pt_hamiltonian
from ptdilate.simulator import evolve_dilated, prepare_initial, simulate_pt

GRID = TimeGrid(0.0, 4.0, 2001)


def cfg(grid=GRID):
    return DilationConfig(grid)


def decode_lambda_gamma(hsa):
    """(Lambda, Gamma) of H_sa = Lambda x I + Gamma x sigma_z, system first.

    ``hsa`` holds the Pauli coefficients of the ancilla sigma_z blocks
    B_0 = Lambda + Gamma and B_1 = Lambda - Gamma.
    """
    blocks = hsa_blocks(hsa)
    b0, b1 = blocks[:, 0], blocks[:, 1]
    return (b0 + b1) / 2.0, (b0 - b1) / 2.0


class TestAncillaBasis:
    def test_states_are_orthonormal(self):
        assert np.vdot(ANCILLA_MINUS, ANCILLA_MINUS) == pytest.approx(1.0)
        assert np.vdot(ANCILLA_PLUS, ANCILLA_PLUS) == pytest.approx(1.0)
        assert abs(np.vdot(ANCILLA_PLUS, ANCILLA_MINUS)) < 1e-15

    def test_sigma_y_eigenstates(self):
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        assert np.allclose(sy @ ANCILLA_MINUS, -ANCILLA_MINUS)
        assert np.allclose(sy @ ANCILLA_PLUS, ANCILLA_PLUS)


class TestInitialMetric:
    def test_hermitian_case_gives_margin_only(self):
        # For r = 0 the propagator is unitary, mu' = 1, m0 = 1 + MARGIN.
        result = dilate(pt_hamiltonian(0.0), cfg())
        assert result.mu_prime == pytest.approx(1.0, abs=1e-12)
        assert result.m0 == pytest.approx(1.1, abs=1e-12)

    def test_m0_grows_with_horizon(self):
        short = dilate(pt_hamiltonian(1.4), cfg(TimeGrid(0.0, 2.0, 1001))).m0
        long = dilate(pt_hamiltonian(1.4), cfg(TimeGrid(0.0, 4.0, 2001))).m0
        assert long > short > 1.0

    @pytest.mark.parametrize(
        "r,m0_exact",
        [(1.0, 283.7957363700544738817), (1.4, 14444305.94658047072027)],
    )
    def test_m0_matches_high_precision_value(self, r, m0_exact):
        # (1 + MARGIN) / min_t sigma_min(W(t))^2 on the nodes of [0, 8],
        # from a 40-digit mpmath evaluation of W = expm(i t H_s); the
        # minimum sits at t = 8 for both strengths.
        m0 = dilate(pt_hamiltonian(r), cfg(TimeGrid(0.0, 8.0, 801))).m0
        assert m0 == pytest.approx(m0_exact, rel=1e-14)

    def test_metric_starts_scalar(self):
        result = dilate(pt_hamiltonian(0.6), cfg())
        m = result.m_series
        assert np.max(np.abs(m.data[0] - result.m0 * np.eye(2))) < 1e-12

    def test_metric_floor_respects_margin(self):
        m = dilate(pt_hamiltonian(0.6), cfg()).m_series
        eigs = np.linalg.eigvalsh(m.data)
        assert np.min(eigs) >= 1.0 + MARGIN - 1e-9

    def test_singular_propagator_guard(self):
        # Broken-regime growth e^{2 s T} beyond the condition cap.
        with pytest.raises(SingularPropagator):
            dilate(pt_hamiltonian(2.5), cfg(TimeGrid(0.0, 8.0, 4001)))

    def test_singular_propagator_names_horizon(self):
        # cond(W) grows like e^{2 sqrt(r^2 - 1) t}; at r = 1.4 it first
        # passes 1e14 near t = 16.1, and the message says where.
        with pytest.raises(SingularPropagator) as info:
            dilate(pt_hamiltonian(1.4), cfg(TimeGrid(0.0, 30.0, 3001)))
        t_bad = float(re.search(r"at t = (\S+)", str(info.value)).group(1))
        assert 16.0 <= t_bad <= 16.2

    @pytest.mark.parametrize(
        "r,grid", [(10.0, TimeGrid(0.0, 100.0, 2001)), (1.4, TimeGrid(0.0, 2000.0, 8001))]
    )
    def test_overflowing_propagator_names_first_bad_node(self, r, grid):
        # W overflows long before t1.  The overflowed nodes count as past
        # the limit, no RuntimeWarning escapes, and the named t is the first
        # node where cond W = sigma_max^2 / |det W| (|det W| = 1 here) of a
        # Pade / LAPACK reference passes 1e14.
        with pytest.raises(SingularPropagator) as info:
            dilate(pt_hamiltonian(r), cfg(grid))
        t_bad = float(re.search(r"at t = (\S+)", str(info.value)).group(1))
        ts = grid.times()
        k = int(np.searchsorted(ts, t_bad))
        assert ts[k] == pytest.approx(t_bad, rel=1e-6)
        w = expm(1j * ts[k - 1 : k + 1, None, None] * pt_hamiltonian(r))
        cond = np.linalg.svd(w, compute_uv=False)[:, 0] ** 2
        assert cond[0] <= 1e14 < cond[1]

    @pytest.mark.parametrize("shift", [-5j, 5j])
    def test_scale_leaving_float_range_names_scale_and_node(self, shift):
        # A = [[1, 1], [1, -1]] is Hermitian, so cond W = 1 at every node and
        # only the scale |det W| = e^{-+10 s} moves.  The singular-value
        # spread e^{10 s} (bounded by 4 e^{10 s}) passes 1e300 between t = 68
        # and 69; W or m0 would overflow near t = 71, with numpy warnings.
        # Both shifts still run to t = 60 (m0 = 1.1 and 4.15e260).
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) + shift * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularPropagator, match=r"scale \|det W\|.* at t = 69$") as info:
                dilate(h, cfg(TimeGrid(0.0, 100.0, 101)))
            result = dilate(h, cfg(TimeGrid(0.0, 60.0, 61)))
        assert not info.value.at_t0
        assert np.isfinite(result.m0) and np.all(np.isfinite(result.hsa_series.data))

    def test_non_finite_propagator_counts_as_past_limit(self):
        # |H_s| ~ 1e200 overflows W at every node, t0 included: a NaN
        # condition number must fail the check, not slip past it.
        with pytest.raises(SingularPropagator, match="at t = 0$"):
            dilate(pt_hamiltonian(1e200), cfg(TimeGrid(0.0, 1.0, 11)))


class TestConstantHs:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda t: pt_hamiltonian(0.6),
            np.zeros((2, 3)),
            np.zeros(2),
            np.full((2, 2), np.nan),
            np.array([[np.inf, 1.0], [1.0, 0.0]]),
            np.eye(3),
        ],
        ids=["callable", "non_square", "vector", "nan", "inf", "three_by_three"],
    )
    def test_rejects_all_but_a_square_matrix(self, bad):
        result = dilate(pt_hamiltonian(0.6), cfg(TimeGrid(0.0, 1.0, 11)))
        with pytest.raises((TypeError, ValueError), match="H_s"):
            dilate(bad, cfg())
        with pytest.raises((TypeError, ValueError), match="H_s"):
            verify_dilation(result, bad)


class TestOperatorIdentities:
    @pytest.mark.parametrize("r", [0.0, 0.6, 1.0, 1.4])
    def test_invariant_suite(self, r):
        h = pt_hamiltonian(r)
        result = dilate(h, cfg())
        report = verify_dilation(result, h)
        assert report.hermiticity <= 1e-10
        assert report.block_antisym <= 1e-9
        assert report.min_eig_m_minus_i >= 0.99 * 0.1
        assert report.metric_ode <= 1e-5

    def test_hsa_is_stored_as_real_pauli_coefficients(self):
        # The (I, x, y, z) coefficients of the two ancilla blocks: Hermitian
        # by format, 64 B per node.
        result = dilate(pt_hamiltonian(0.6), cfg(TimeGrid(0.0, 2.0, 101)))
        data = result.hsa_series.data
        assert data.dtype == np.float64 and data.shape == (101, 2, 4)

    def test_verify_measures_hermiticity_of_complex_coefficients(self):
        # A hand-built complex series: the residual is 2 ||Im c|| / ||c||,
        # the ||H - H^dag||_F / ||H||_F of the assembled 4x4 operator.
        h = pt_hamiltonian(0.6)
        result = dilate(h, cfg(TimeGrid(0.0, 2.0, 101)))
        rng = np.random.default_rng(47)
        c = result.hsa_series.data + 1e-3j * rng.normal(size=result.hsa_series.data.shape)
        result.hsa_series = OperatorSeries(result.grid, c)
        report = verify_dilation(result, h)
        ratio = 2.0 * np.linalg.norm(c.imag, axis=(1, 2)) / np.linalg.norm(c, axis=(1, 2))
        hsa = block_diag(hsa_blocks(c))
        anti = np.linalg.norm(hsa - hsa.conj().swapaxes(-1, -2), axis=(1, 2))
        assert report.hermiticity == pytest.approx(np.max(ratio), rel=1e-12)
        assert report.hermiticity == pytest.approx(np.max(anti / np.linalg.norm(hsa, axis=(1, 2))), rel=1e-12)
        assert report.hermiticity > 1e-4

    def test_hermitian_input_collapses_to_h_tensor_identity(self):
        # r = 0: eta is constant, Gamma = 0, H_sa = H_s x I.
        h = pt_hamiltonian(0.0)
        result = dilate(h, cfg())
        expected = np.kron(h, np.eye(2))
        assert np.max(np.abs(block_diag(hsa_blocks(result.hsa_series.data)) - expected[None])) < 1e-12

    def test_subnormal_diagonal_hermitian_input_stays_finite(self):
        # W = e^{i t H_s} is unitary up to subnormal noise, so W^dag W is I
        # to rounding at every node: H_sa must still be H_s x I, not NaN.
        h = np.array([[5e-324, 1.0], [1.0, 5e-324]], dtype=complex)
        result = dilate(h, cfg(TimeGrid(0.0, 3.0, 1001)))
        assert np.max(np.abs(block_diag(hsa_blocks(result.hsa_series.data)) - np.kron(h, np.eye(2)))) < 1e-12

    def test_block_structure_in_ancilla_basis(self):
        # sigma_z maps each sigma_y eigenstate to the other with matrix
        # elements <+-|sigma_z|-+> = +-i, so the diagonal blocks are both
        # Lambda and the off-diagonal blocks are +-i Gamma.
        result = dilate(pt_hamiltonian(0.6), cfg())
        blocks = ancilla_blocks(hsa_blocks(result.hsa_series.data))
        lam, gam = decode_lambda_gamma(result.hsa_series.data)
        assert np.max(np.abs(blocks["--"] - lam)) < 1e-10
        assert np.max(np.abs(blocks["++"] - lam)) < 1e-10
        assert np.max(np.abs(blocks["+-"] - 1j * gam)) < 1e-10
        assert np.max(np.abs(blocks["-+"] + 1j * gam)) < 1e-10

    @pytest.mark.parametrize(
        "r,grid,nodes",
        [
            (1.4, TimeGrid(0.0, 15.0, 3001), range(1000, 1200, 2)),
            (1.1, TimeGrid(0.0, 30.0, 3001), range(1000, 1200, 2)),
            (2.0, TimeGrid(0.0, 8.0, 3001), range(1000, 1200, 2)),
        ],
    )
    def test_hsa_matches_50_digit_defining_formulas(self, r, grid, nodes):
        # Long horizons, where m0 is ~1e12-1e13: H_sa is smallest relative
        # to H_s near these nodes, so its relative error peaks there.
        h = pt_hamiltonian(r)
        result = dilate(h, cfg(grid))
        for k in nodes:
            ref = hsa_blocks_mp(h, grid.times()[k], result.m0)
            err = np.linalg.norm(hsa_blocks(result.hsa_series.data[k]) - ref) / np.linalg.norm(ref)
            assert err <= 5e-12, f"node {k}"

    def test_direct_route_agrees_with_svd_route(self):
        # The naive formula evaluation is accurate while the metric is
        # moderately conditioned; both routes must then coincide.
        h = pt_hamiltonian(0.6)
        result = dilate(h, cfg(TimeGrid(0.0, 2.0, 1001)))
        eta, deta = eta_series(result.m_series, h)
        lam, gam, lam_presym = lambda_gamma(h, result.m_series, eta, deta)
        lam_svd, gam_svd = decode_lambda_gamma(result.hsa_series.data)
        assert np.max(np.abs(lam.data - lam_svd)) < 1e-8
        assert np.max(np.abs(gam.data - gam_svd)) < 1e-8
        assert np.max(lam_presym) < 1e-6


@st.composite
def dilation_cases(draw):
    """(r, t1, n_nodes) with t1 inside the horizon the metric can carry.

    For r > 1, cond(W) grows like e^{2 sqrt(r^2 - 1) t}; t1 is capped at
    half the horizon where that reaches the 1e14 condition limit.
    """
    r = draw(st.floats(min_value=0.0, max_value=2.0))
    t_max = 8.0
    if r > 1.0:
        t_max = min(t_max, math.log(1e14) / (4.0 * math.sqrt(r * r - 1.0)))
    t1 = draw(st.floats(min_value=0.5, max_value=t_max))
    n_nodes = draw(st.integers(min_value=51, max_value=401))
    return r, t1, n_nodes


@st.composite
def universality_cases(draw):
    """(H_s, psi0, t1, n_nodes) over three families of constant 2x2 H_s.

    Bender's [[r e^{i theta}, s], [s, r e^{-i theta}]]; the same shifted by
    -i gamma I, whose Im tr H_s = -2 gamma makes |det W| = e^{2 gamma t}
    differ from 1; and a general complex 2x2.  cond W(t) is at most
    e^{2 t ||A||} for A the traceless anti-Hermitian part of H_s, so
    t1 <= ln(1e6) / (2 ||A||) keeps every node inside the horizon.
    """
    family = draw(st.sampled_from(["bender", "shifted", "general"]))
    unit = st.floats(min_value=-1.0, max_value=1.0)
    if family == "general":
        h = np.array([[complex(draw(unit), draw(unit)) for _ in range(2)] for _ in range(2)])
    else:
        r = draw(st.floats(min_value=0.0, max_value=1.5))
        theta = draw(st.floats(min_value=0.0, max_value=math.pi))
        s = draw(st.floats(min_value=0.2, max_value=1.5))
        h = np.array([[r * cmath.exp(1j * theta), s], [s, r * cmath.exp(-1j * theta)]])
        if family == "shifted":
            h = h - 1j * draw(st.floats(min_value=0.0, max_value=1.0)) * np.eye(2)
    a = (h - h.conj().T) / 2j
    a -= np.trace(a) / 2.0 * np.eye(2)
    t_max = min(3.0, math.log(1e6) / (2.0 * max(np.linalg.norm(a, 2), 1e-300)))
    t1 = draw(st.floats(min_value=t_max / 2.0, max_value=t_max))
    psi0 = np.array([complex(draw(unit), draw(unit)) for _ in range(2)])
    assume(np.linalg.norm(psi0) > 0.1)
    n_nodes = draw(st.integers(min_value=1001, max_value=3001))
    return h, psi0 / np.linalg.norm(psi0), t1, n_nodes


@st.composite
def horizon_cases(draw):
    """(H_s, grid) whose horizons straddle the 1e14 condition limit.

    Four families: Bender's [[r e^{i theta}, s], [s, r e^{-i theta}]], the
    same shifted by -i gamma I, a general complex 2x2, and
    ``pt_hamiltonian`` within 1e-6 of the exceptional point, where cond W
    reaches 1e14 only after ~1e4 (broken side) to ~1e7 (at r = 1) time
    units, or never (unbroken side).  Otherwise cond W(t) is at most
    e^{2 t ||A||}, A the traceless anti-Hermitian part of H_s, so the span
    is drawn from half to eight times ln(1e14) / (2 ||A||); about one draw
    in seven crosses.  The scalar e^{i tau t} cancels from cond W; it is
    kept within e^{+-50}, where the reference's W and singular values are
    finite.
    """
    family = draw(st.sampled_from(["bender", "shifted", "general", "near_ep"]))
    unit = st.floats(min_value=-1.0, max_value=1.0)
    if family == "near_ep":
        h = pt_hamiltonian(1.0 + draw(st.floats(min_value=-1e-6, max_value=1e-6)))
        span = 10.0 ** draw(st.floats(min_value=2.0, max_value=7.5))
    else:
        if family == "general":
            h = np.array([[complex(draw(unit), draw(unit)) for _ in range(2)] for _ in range(2)])
        else:
            r = draw(st.floats(min_value=0.0, max_value=2.0))
            theta = draw(st.floats(min_value=0.0, max_value=math.pi))
            s = draw(st.floats(min_value=0.2, max_value=1.5))
            h = np.array([[r * cmath.exp(1j * theta), s], [s, r * cmath.exp(-1j * theta)]])
        a = (h - h.conj().T) / 2j
        a -= np.trace(a) / 2.0 * np.eye(2)
        t_lo = math.log(1e14) / (2.0 * max(np.linalg.norm(a, 2), 1e-300))
        span = min(t_lo * 2.0 ** draw(st.floats(min_value=-1.0, max_value=3.0)), 1e7)
        if family == "shifted":
            gamma = draw(st.floats(min_value=0.0, max_value=min(1.0, 50.0 / span)))
            h = h - 1j * gamma * np.eye(2)
    assume(abs(np.trace(h).imag) / 2.0 * span <= 50.0)
    t0 = draw(st.floats(min_value=-5.0, max_value=5.0))
    return h, TimeGrid(t0, t0 + span, draw(st.integers(min_value=11, max_value=2001)))


@st.composite
def metric_floor_cases(draw):
    """(H_s, grid): ``pt_hamiltonian`` over ``dilation_cases``, or a
    ``universality_cases`` H_s shifted by i gamma I (either sign of gamma,
    which scales |det W| up or down) on a grid from t0 in [-5, 5]."""
    if draw(st.booleans()):
        r, t1, n_nodes = draw(dilation_cases())
        return pt_hamiltonian(r), TimeGrid(0.0, t1, n_nodes)
    h, _, span, n_nodes = draw(universality_cases())
    h = h + 1j * draw(st.floats(min_value=-1.0, max_value=1.0)) * np.eye(2)
    t0 = draw(st.floats(min_value=-5.0, max_value=5.0))
    return h, TimeGrid(t0, t0 + span, n_nodes)


class TestDilationProperties:
    @settings(max_examples=30, deadline=None)
    @given(dilation_cases())
    def test_invariants_over_random_strength_horizon_grid(self, case):
        r, t1, n_nodes = case
        traj, result = simulate_pt(r, TimeGrid(0.0, t1, n_nodes))
        report = verify_dilation(result, pt_hamiltonian(r))
        assert report.hermiticity <= 1e-10
        assert report.block_antisym <= 1e-9
        assert report.min_eig_m_minus_i >= 0.99 * MARGIN
        assert np.all(traj.success_prob > 0.0) and np.all(traj.success_prob <= 1.0)
        assert np.all(traj.p0 >= -1e-12) and np.all(traj.p0 <= 1.0 + 1e-12)
        # Every H_sa block and M are Hermitian by construction, bit for bit.
        for x in (hsa_blocks(result.hsa_series.data), result.m_series.data):
            assert np.array_equal(x, x.conj().swapaxes(-1, -2))

    @settings(max_examples=60, deadline=None)
    @given(metric_floor_cases())
    def test_metric_floor_is_margin(self, case):
        # m0 = (1 + MARGIN) / mu' puts min eig(M - I) at MARGIN, and W = I
        # at t0 keeps m0 in (1, inf), with no runtime guard: the stored M
        # keeps that floor at every node.  An eigenvalue of a stored M is
        # exact only to a few eps ||M|| (3.6 eps at worst over 3,000 draws,
        # where ||M|| reaches ~1e13), so each node allows 8 eps ||M||.
        h, grid = case
        result = dilate(h, cfg(grid))
        assert 1.0 < result.m0 < math.inf
        assert result.m0 * result.mu_prime - 1.0 == pytest.approx(MARGIN, rel=1e-14)
        eigs = np.linalg.eigvalsh(result.m_series.data)
        roundoff = 8.0 * np.finfo(float).eps * eigs[:, 1]
        assert np.all(eigs[:, 0] - 1.0 >= 0.99 * MARGIN - roundoff)

    @settings(max_examples=200, deadline=None)
    @given(horizon_cases())
    def test_margin_holds_up_to_the_horizon(self, case):
        # Every H_s the horizon check passes, out to cond W = 1e14 and
        # |det W| = e^{+-50}, gets m0 in (1, inf) and the floor MARGIN.
        h, grid = case
        assume(horizon_first_bad(h, grid) is None)
        result = dilate(h, cfg(grid))
        assert 1.0 < result.m0 < math.inf
        assert result.m0 * result.mu_prime - 1.0 == pytest.approx(MARGIN, rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(universality_cases())
    def test_postselected_state_matches_closed_form_for_general_hs(self, case):
        # The |-> branch of the dilated evolution from psi0 is
        # W(t)^{-1} psi0 = adj W psi0 / det W (W = e^{i t H_s}) as a ray, up
        # to the O(dt^2) of the midpoint steps; the worst of 3,900 random
        # draws over these families sat at 137 dt^2.
        h, psi0, t1, n_nodes = case
        grid = TimeGrid(0.0, t1, n_nodes)
        result = dilate(h, cfg(grid))
        traj = evolve_dilated(result.hsa_series, prepare_initial(psi0, math.sqrt(result.m0 - 1.0)))
        idx = np.linspace(0, n_nodes - 1, 41).astype(int)
        proj = traj.states[idx].reshape(-1, 2, 2) @ ANCILLA_MINUS.conj()
        w = expm(1j * grid.times()[idx, None, None] * h)
        adj = np.array([[w[:, 1, 1], -w[:, 0, 1]], [-w[:, 1, 0], w[:, 0, 0]]]).transpose(2, 0, 1)
        ref = adj @ psi0 / np.linalg.det(w)[:, None]
        u = proj / np.linalg.norm(proj, axis=1, keepdims=True)
        v = ref / np.linalg.norm(ref, axis=1, keepdims=True)
        overlap = np.sum(u.conj() * v, axis=1)
        ray_dist = np.linalg.norm(u * (overlap / np.abs(overlap))[:, None] - v, axis=1)
        assert np.max(ray_dist) <= 1000.0 * grid.dt**2

    @settings(max_examples=200, deadline=None)
    @given(horizon_cases())
    def test_closed_form_horizon_matches_singular_values(self, case):
        # The closed form raises at the reference's first node past 1e14,
        # and passes where the reference passes.  A grid of at most 2001
        # nodes keeps every t distinct in the message's 6 digits.
        h, grid = case
        first = horizon_first_bad(h, grid)
        if first is None:
            check_horizon(h, grid)
            return
        with pytest.raises(SingularPropagator) as info:
            check_horizon(h, grid)
        assert str(info.value).endswith(f"at t = {grid.times()[first]:.6g}")
        assert info.value.at_t0 == (first == 0)


@st.composite
def stacked_cases(draw):
    """(H_s, grid): a ``universality_cases`` H_s on its grid, or
    ``pt_hamiltonian`` at a panel r or r = 1.5 on [0, 8] at 8001 nodes."""
    if draw(st.booleans()):
        h, _, t1, n_nodes = draw(universality_cases())
        return h, TimeGrid(0.0, t1, n_nodes)
    r = draw(st.sampled_from([0.0, 0.6, 1.0, 1.4, 1.5]))
    return pt_hamiltonian(r), TimeGrid(0.0, 8.0, 8001)


class TestEntrywiseDilation:
    # dilate and verify_dilation work on the entries of each 2x2; the
    # stacked route in reference_dilation is the one they replaced.

    @settings(max_examples=40, deadline=None)
    @given(stacked_cases())
    def test_matches_stacked_route(self, case):
        # H_sa, m0 and mu' are the same floating-point operations on the
        # same operands, so they agree bit for bit.  M = m0 W^dag W comes
        # from the Gram entries, not from V diag(m0 sigma^2) V^dag: the two
        # differ by at most 7.6 eps ||M||_F per node over 1,800 draws
        # (each lies within ~4 eps of a 40-digit m0 W^dag W).
        h, grid = case
        m0, mu_prime, m, hsa = dilate_stacked(h, grid)
        result = dilate(h, cfg(grid))
        assert np.array_equal(result.hsa_series.data, hsa)
        assert result.m0 == m0 and result.mu_prime == mu_prime
        dev = np.max(np.abs(result.m_series.data - m), axis=(1, 2))
        assert np.all(dev <= 16.0 * np.finfo(float).eps * np.linalg.norm(m, axis=(1, 2)))

    @pytest.mark.parametrize("r", [0.0, 0.6, 1.0, 1.4])
    def test_metric_ode_matches_stacked_residual(self, r):
        h = pt_hamiltonian(r)
        result = dilate(h, cfg(TimeGrid(0.0, 8.0, 8001)))
        m, dt = result.m_series.data, result.grid.dt
        comm = mul_2x2(h.conj().T, m) - mul_2x2(m, h)
        resid = np.linalg.norm(1j * (m[2:] - m[:-2]) / (2.0 * dt) - comm[1:-1], axis=(-2, -1))
        scale = np.maximum(np.linalg.norm(m[1:-1], axis=(-2, -1)) * np.linalg.norm(h), 1.0)
        want = np.max(resid / scale)
        assert verify_dilation(result, h).metric_ode == pytest.approx(want, abs=1e-12)


class TestPostselectionFidelity:
    @pytest.mark.parametrize("r", [0.3, 0.9, 1.2])
    def test_projected_propagation_reproduces_hs_evolution(self, r):
        # Evolve |psi0>(|-> + eta0 |+>) under H_sa stepwise; projecting the
        # ancilla on |-> must reproduce e^{-i H_s t} |psi0> as a ray.
        h = pt_hamiltonian(r)
        grid = TimeGrid(0.0, 2.0, 2001)
        result = dilate(h, cfg(grid))
        eta0 = np.sqrt(result.m0 - 1.0)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        anc = (ANCILLA_MINUS + eta0 * ANCILLA_PLUS) / np.sqrt(1.0 + eta0**2)
        state = np.kron(psi0, anc)
        hsa = block_diag(hsa_blocks(result.hsa_series.data))
        hmid = (hsa[:-1] + hsa[1:]) / 2.0
        steps = expm(-1j * grid.dt * hmid)
        for k in range(grid.n_nodes - 1):
            state = steps[k] @ state
        proj = state.reshape(2, 2) @ ANCILLA_MINUS.conj()
        ref = expm(-1j * grid.t1 * h) @ psi0
        overlap = abs(np.vdot(proj, ref)) / (
            np.linalg.norm(proj) * np.linalg.norm(ref)
        )
        assert overlap == pytest.approx(1.0, abs=1e-6)


class TestMemory:
    def test_dilate_peak_memory_per_node(self):
        # Each H_sa block's coefficients are formed in one elementwise pass
        # and M from W^dag W's entries, with no symmetrization, residual or
        # second basis-change pass: dilate peaks near 336 B per node (x86-64,
        # numpy 2.4; 417 B with M = V diag(m0 sigma^2) V^dag on 2x2 stacks).
        grid = TimeGrid(0.0, 16.0, 100001)
        tracemalloc.start()
        try:
            dilate(pt_hamiltonian(1.4), cfg(grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 600 * grid.n_nodes

