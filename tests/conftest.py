from __future__ import annotations

import numpy as np
import pytest

from cclab.states import PAULI, DensityMatrix, PureState, pure_to_density


def random_pure(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(n, a / np.linalg.norm(a))


def random_density(n, seed, rank=None):
    """Random mixed state from a partial trace of a larger pure state."""
    rng = np.random.default_rng(seed)
    rank = rank or 2**n
    a = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    m = a @ a.conj().T
    m /= np.trace(m).real
    return DensityMatrix(n, m)


def dense_pauli_expectation(matrix, labels):
    """Reference tr(sigma_j1 x ... x sigma_jn rho) from the dense Kronecker
    product of the Pauli matrices."""
    op = np.ones((1, 1))
    for lab in labels:
        op = np.kron(op, PAULI[lab])
    return np.trace(op @ matrix)


ACCEPTANCE_LINES = []


def record_acceptance(criterion, ok, detail):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    return line


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def bell():
    return pure_to_density(PureState.from_amplitudes(
        np.array([1, 0, 0, 1]) / np.sqrt(2)))


@pytest.fixture
def w3():
    return pure_to_density(PureState.w_state(3))
