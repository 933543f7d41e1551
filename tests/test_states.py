from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from cclab.states import (PAULI_LABELS, DensityMatrix, PositivityError, PureState,
                          density, fano, load_state, pair_forms, partial_trace,
                          partial_transpose, pauli_expectation, pure_to_density,
                          shannon_entropy, von_neumann_entropy)
from conftest import dense_pauli_expectation, random_density, random_pure


def test_pure_state_normalization_enforced():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))


def test_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0]))


def test_density_matrix_validation():
    # non-hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))
    # wrong trace
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))
    # negative eigenvalue
    with pytest.raises(PositivityError):
        DensityMatrix(1, np.diag([1.5, -0.5]))


def test_qubit_one_is_leftmost_factor():
    # |10> means qubit 1 excited -> basis index 2 for 2 qubits
    psi = PureState.basis(2, 2)
    rho = pure_to_density(psi)
    assert pauli_expectation(rho, ("Z", "I")) == pytest.approx(-1.0)
    assert pauli_expectation(rho, ("I", "Z")) == pytest.approx(1.0)


def test_partial_trace_bell(bell):
    r1 = partial_trace(bell, (1,))
    assert np.allclose(r1.matrix, np.eye(2) / 2)
    r12 = partial_trace(bell, (1, 2))
    assert np.allclose(r12.matrix, bell.matrix)


def test_partial_trace_order_preserved():
    # |01> reduced to (2, 1) ordering swaps the marginals
    rho = pure_to_density(PureState.basis(2, 1))
    r = partial_trace(rho, (2, 1))
    assert pauli_expectation(r, ("Z", "I")) == pytest.approx(-1.0)
    assert pauli_expectation(r, ("I", "Z")) == pytest.approx(1.0)


def test_partial_trace_bad_sites():
    rho = random_density(2, 0)
    with pytest.raises(IndexError):
        partial_trace(rho, (3,))
    with pytest.raises(ValueError):
        partial_trace(rho, (1, 1))


def test_tensor_and_trace_roundtrip():
    a = random_density(1, 1)
    b = random_density(1, 2)
    ab = DensityMatrix(2, np.kron(a.matrix, b.matrix))
    assert np.allclose(partial_trace(ab, (1,)).matrix, a.matrix, atol=1e-12)
    assert np.allclose(partial_trace(ab, (2,)).matrix, b.matrix, atol=1e-12)


def test_partial_transpose_bell_negative(bell):
    pt = partial_transpose(bell, (2,))
    evals = np.linalg.eigvalsh(pt)
    assert evals[0] == pytest.approx(-0.5, abs=1e-12)
    assert np.trace(pt).real == pytest.approx(1.0)


def test_partial_transpose_involution():
    rho = random_density(2, 3)
    pt = partial_transpose(rho, (1,))
    back = partial_transpose(DensityMatrix(2, pt, validate=False), (1,))
    assert np.allclose(back, rho.matrix)


def test_entropies():
    assert von_neumann_entropy(DensityMatrix.maximally_mixed(2)) == pytest.approx(2.0)
    assert von_neumann_entropy(pure_to_density(PureState.basis(2, 0))) == pytest.approx(0.0)
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert shannon_entropy([1.0, 0.0]) == pytest.approx(0.0)


@pytest.mark.parametrize("outcomes", [2, 4])
def test_shannon_entropy_matches_numpy_row_sum(outcomes):
    # rows as the optimizers pass them: zeros, tiny and slightly negative
    # entries, one-hot rows; the reference sums each row with np.sum
    rng = np.random.default_rng(outcomes)
    p = rng.random((3000, outcomes)) ** 6
    p[rng.random(p.shape) < 0.2] = 0.0
    p[::7] = np.eye(outcomes)[0]
    p /= np.where(p.sum(-1, keepdims=True) > 0, p.sum(-1, keepdims=True), 1.0)
    p[::11, -1] = -1e-17
    q = np.clip(p, 0.0, None)
    keep = q > 1e-12
    reference = -np.sum(np.where(keep, q * np.log2(np.where(keep, q, 1.0)), 0.0), axis=-1)
    assert np.array_equal(shannon_entropy(p), reference)
    assert np.array_equal(shannon_entropy(p.reshape(30, 100, outcomes)), reference.reshape(30, 100))


def test_entropy_rejects_nonpositive():
    with pytest.raises(PositivityError):
        von_neumann_entropy(DensityMatrix(1, np.diag([1.5, -0.5]), validate=False))


def test_w_state_and_generalized_w():
    w = PureState.w_state(3)
    assert np.nonzero(w.amplitudes)[0].tolist() == [1, 2, 4]
    gw = PureState.generalized_w([1.0, 0.0, 0.0])
    assert gw.amplitudes[1] == pytest.approx(1.0)


def test_generalized_ghz():
    g = PureState.generalized_ghz(3, np.pi / 2, 0.3)
    assert abs(g.amplitudes[0]) == pytest.approx(np.cos(np.pi / 4))
    assert np.angle(g.amplitudes[-1]) == pytest.approx(0.3)


def test_json_roundtrip(tmp_path):
    psi = random_pure(2, 7)
    back = PureState.from_json(psi.to_json())
    assert np.allclose(back.amplitudes, psi.amplitudes)

    rho = random_density(2, 8)
    back = DensityMatrix.from_json(rho.to_json())
    assert np.allclose(back.matrix, rho.matrix)

    f = tmp_path / "state.json"
    f.write_text(psi.to_json())
    loaded = load_state(f)
    assert np.allclose(loaded.matrix, pure_to_density(psi).matrix)


def test_fano_matches_pauli_expectations():
    """F[j1, ..., jn] = tr(rho sigma_j1 x ... x sigma_jn) for every label
    string of 1 to 5 qubits, against the dense Kronecker-product operator;
    pauli_expectation reads the same entry; and a state's form is the same
    bit for bit alone or inside a stack."""
    for n in range(1, 6):
        rhos = [random_density(n, 20 + 10 * n + k) for k in range(3)]
        stacked = fano(np.array([r.matrix for r in rhos]))
        assert stacked.shape == (3,) + (4,) * n
        for rho, F in zip(rhos, stacked):
            for idx in itertools.product(range(4), repeat=n):
                labels = tuple(PAULI_LABELS[j] for j in idx)
                want = dense_pauli_expectation(rho.matrix, labels)
                assert abs(want.imag) < 1e-14
                assert F[idx] == pytest.approx(want.real, abs=1e-14)
                assert pauli_expectation(rho, labels) == F[idx]
            assert np.array_equal(fano(rho.matrix), F)
            assert np.array_equal(fano(rho.matrix[None])[0], F)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_density_inverts_fano(n):
    """density(fano(m), n) recovers m, for a stack and for each state alone;
    a state's matrix is the same bit for bit alone or inside the stack."""
    mats = np.array([random_density(n, 60 + 10 * n + k).matrix for k in range(3)])
    F = fano(mats)
    stacked = density(F, n)
    assert stacked.shape == mats.shape
    assert np.max(np.abs(stacked - mats)) <= 1e-15
    for m, f, d in zip(mats, F, stacked):
        alone = density(f, n)
        assert np.max(np.abs(alone - m)) <= 1e-15
        assert np.array_equal(alone, d)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_forms_are_partial_traces(n):
    """The (nodal, i) slices of an n-qubit form are the Fano forms of the
    reduced pairs, for every nodal qubit."""
    rhos = [random_density(n, 90 + 10 * n + k) for k in range(2)]
    F = fano(np.array([r.matrix for r in rhos]))
    for nodal in range(1, n + 1):
        pairs = pair_forms(F, nodal)
        assert pairs.shape == (2, n - 1, 4, 4)
        for rho, row in zip(rhos, pairs):
            others = [i for i in range(1, n + 1) if i != nodal]
            for i, pair in zip(others, row):
                want = fano(partial_trace(rho, (nodal, i)).matrix)
                assert np.max(np.abs(pair - want)) <= 1e-15, (nodal, i)
    for bad in (0, n + 1):
        with pytest.raises(IndexError):
            pair_forms(F, bad)


def test_pauli_expectation_rejects_imaginary_residue():
    # a non-Hermitian matrix: tr(rho Z) = 1 - 2 rho[1, 1] = -1j
    m = np.array([[0.5, 0.25], [0.0, 0.5 + 0.5j]])
    rho = DensityMatrix(1, m, validate=False)
    with pytest.raises(ValueError, match="imaginary residue"):
        pauli_expectation(rho, ("Z",))
    # tr(rho X) is real here, but the matrix is still not a state
    with pytest.raises(ValueError, match="imaginary residue"):
        pauli_expectation(rho, ("X",))


def test_pauli_expectation_label_count():
    rho = random_density(2, 9)
    with pytest.raises(ValueError):
        pauli_expectation(rho, ("Z",))
