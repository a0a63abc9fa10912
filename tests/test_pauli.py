"""A/B coefficient extraction from the H_sa blocks, and the reference Pauli codec."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_pauli import _A_SLOTS, _B_SLOTS, assemble, pauli_decompose

from ptdilate.cli import _write_csv
from ptdilate.dilation import DilationConfig, dilate
from ptdilate.numkit import NotHermitian, OperatorSeries, TimeGrid, block_diag
from ptdilate.pauli import ASeries, BNonVanishing, PAULI_1Q, extract_a_series
from ptdilate.ptmodel import pt_hamiltonian


def random_hermitian4(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (a + a.conj().T) / 2.0


class TestDecompose:
    def test_single_basis_elements(self):
        sx, sz = PAULI_1Q[1], PAULI_1Q[3]
        c = pauli_decompose(np.kron(sx, np.eye(2)))
        assert c[1, 0] == pytest.approx(1.0)  # x (x) I
        assert abs(c[0, 3]) < 1e-15  # I (x) z
        c = pauli_decompose(np.kron(sz, sz))
        assert c[3, 3] == pytest.approx(1.0)  # z (x) z

    def test_identity_coefficient(self):
        c = pauli_decompose(3.0 * np.eye(4, dtype=complex))
        assert c[0, 0] == pytest.approx(3.0)

    def test_roundtrip_random_hermitian(self):
        rng = np.random.default_rng(23)
        m = random_hermitian4(rng)
        c = pauli_decompose(m)
        assert np.max(np.abs(assemble(c) - m)) < 1e-13

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            pauli_decompose(np.triu(np.ones((4, 4))) * 1j)
        rng = np.random.default_rng(31)
        stack = np.stack([random_hermitian4(rng) for _ in range(5)])
        pauli_decompose(stack)
        stack[3] = np.triu(np.ones((4, 4))) * 1j  # one bad node in the stack
        with pytest.raises(NotHermitian):
            pauli_decompose(stack)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            pauli_decompose(np.eye(2))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
                min_size=16,
                max_size=16,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_assemble_decompose_inverse_pair(self, coeffs):
        tables = np.array(coeffs).reshape(-1, 4, 4)
        back = pauli_decompose(assemble(tables))
        assert np.max(np.abs(back - tables)) < 1e-12


class TestASeriesExtraction:
    def test_hermitian_case_is_pure_a1(self):
        # r = 0 dilates to sigma_x (x) I: A1 = 1, everything else vanishes.
        grid = TimeGrid(0.0, 2.0, 201)
        result = dilate(pt_hamiltonian(0.0), DilationConfig(grid))
        aser = extract_a_series(result.hsa_series)
        assert np.max(np.abs(aser.a[:, 0] - 1.0)) < 1e-9
        assert np.max(np.abs(aser.a[:, 1:])) < 1e-9
        assert np.max(np.abs(aser.b)) < 1e-9

    @pytest.mark.parametrize("r", [0.6, 1.0, 1.4])
    def test_b_coefficients_vanish_for_pt_family(self, r):
        grid = TimeGrid(0.0, 4.0, 801)
        result = dilate(pt_hamiltonian(r), DilationConfig(grid))
        aser = extract_a_series(result.hsa_series)
        assert np.max(np.abs(aser.b)) < 1e-9

    def test_a_form_reassembles_hsa(self):
        grid = TimeGrid(0.0, 2.0, 101)
        result = dilate(pt_hamiltonian(0.8), DilationConfig(grid))
        aser = extract_a_series(result.hsa_series)
        tables = np.zeros((len(aser.a), 4, 4))
        # A1..A4 sit in the (x,I), (I,z), (y,z), (z,z) slots.
        tables[:, [1, 0, 2, 3], [0, 3, 3, 3]] = aser.a
        rebuilt = assemble(tables)
        assert np.max(np.abs(rebuilt - block_diag(result.hsa_series.data))) < 1e-9

    def test_warns_outside_reduced_family(self):
        grid = TimeGrid(0.0, 1.0, 3)
        # sigma_z (x) I, a B slot: Lambda = sigma_z and Gamma = 0.
        off_family = np.stack([PAULI_1Q[3], PAULI_1Q[3]])
        series = OperatorSeries(grid, np.repeat(off_family[None], 3, axis=0))
        with pytest.warns(BNonVanishing):
            extract_a_series(series)

    def test_rejects_non_hermitian_block(self):
        grid = TimeGrid(0.0, 1.0, 3)
        blocks = np.zeros((3, 2, 2, 2), dtype=complex)
        blocks[1, 0] = np.triu(np.ones((2, 2))) * 1j  # one bad node
        with pytest.raises(NotHermitian):
            extract_a_series(OperatorSeries(grid, blocks))

    def test_rejects_4x4_series(self):
        series = OperatorSeries(TimeGrid(0.0, 1.0, 3), np.zeros((3, 4, 4), dtype=complex))
        with pytest.raises(ValueError, match=r"\(\.\.\., 2, 2, 2\)"):
            extract_a_series(series)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
                min_size=8,
                max_size=8,
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_block_decode_matches_reference_codec(self, coeffs):
        # Random Lambda, Gamma from their Pauli coefficients; the block
        # decode must read the A/B slots of the full 4x4 decomposition.
        c = np.array(coeffs).reshape(-1, 2, 4)
        lam, gam = np.einsum("nki,iab->knab", c.astype(complex), PAULI_1Q)
        blocks = np.stack([lam + gam, lam - gam], axis=1)
        grid = TimeGrid(0.0, 1.0, len(blocks))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BNonVanishing)
            aser = extract_a_series(OperatorSeries(grid, blocks))
        ref = pauli_decompose(block_diag(blocks))
        assert np.max(np.abs(aser.a - ref[(..., *_A_SLOTS)])) <= 1e-14
        assert np.max(np.abs(aser.b - ref[(..., *_B_SLOTS)])) <= 1e-14


class TestCsvRoundtrip:
    def test_roundtrip_preserves_values(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 5)
        rng = np.random.default_rng(29)
        aser = ASeries(grid=grid, a=rng.normal(size=(5, 4)), b=rng.normal(size=(5, 4)))
        path = tmp_path / "aseries.csv"
        columns = ("t", "A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4")
        _write_csv(str(path), {}, columns, np.column_stack([grid.times(), aser.a, aser.b]))
        with open(path) as fh:
            assert fh.readline() == "# {}\n"
            assert fh.readline() == "t,A1,A2,A3,A4,B1,B2,B3,B4\n"
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        assert np.array_equal(rows[:, 1:5], aser.a)
        assert np.array_equal(rows[:, 5:9], aser.b)
        assert np.array_equal(rows[:, 0], grid.times())
