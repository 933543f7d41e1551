"""Complex linear-algebra substrate for few-qubit states.

Conventions: qubit 1 is the leftmost tensor factor (most significant bit of
the computational-basis index), and qubit indices in the public API are
1-based. Entropies use log base 2 throughout.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

ATOL_NORM = 1e-12
ATOL_PSD = 1e-10

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

PAULI_LABELS = ("I", "X", "Y", "Z")


class PositivityError(ValueError):
    """Matrix violates positive semidefiniteness beyond tolerance."""


def _check_qubits(n_qubits: int, dim: int) -> None:
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be positive, got {n_qubits}")
    if dim != 2**n_qubits:
        raise ValueError(f"dimension {dim} does not match 2**{n_qubits}")


def check_sites(sites, n_qubits: int) -> tuple[int, ...]:
    """Validate an ordered list of distinct 1-based qubit indices."""
    sites = tuple(int(s) for s in sites)
    for s in sites:
        if not 1 <= s <= n_qubits:
            raise IndexError(f"qubit index {s} out of range [1, {n_qubits}]")
    if len(set(sites)) != len(sites):
        raise ValueError(f"duplicate qubit indices in {sites}")
    return sites


@dataclass(frozen=True)
class PureState:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        _check_qubits(self.n_qubits, amps.shape[0])
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a 1-D vector")
        norm = np.sum(np.abs(amps) ** 2)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state not normalized: |psi|^2 = {norm}")

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "PureState":
        amps = np.asarray(amplitudes, dtype=complex)
        n = int(round(np.log2(amps.shape[0])))
        return cls(n, amps)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "PureState":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def w_state(cls, n_qubits: int) -> "PureState":
        amps = np.zeros(2**n_qubits, dtype=complex)
        for i in range(n_qubits):
            amps[2**i] = 1.0 / np.sqrt(n_qubits)
        return cls(n_qubits, amps)

    @classmethod
    def generalized_w(cls, amplitudes) -> "PureState":
        """Single-excitation superposition: a_i multiplies |0...010...0> with
        the excitation at basis integer 2**(i-1)."""
        a = np.asarray(amplitudes, dtype=complex)
        n = a.shape[0]
        amps = np.zeros(2**n, dtype=complex)
        for i in range(n):
            amps[2**i] = a[i]
        return cls(n, amps)

    @classmethod
    def generalized_ghz(cls, n_qubits: int, theta: float, phi: float = 0.0) -> "PureState":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[0] = np.cos(theta / 2)
        amps[-1] = np.exp(1j * phi) * np.sin(theta / 2)
        return cls(n_qubits, amps)

    def to_json(self) -> str:
        return json.dumps({
            "n_qubits": self.n_qubits,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        })

    @classmethod
    def from_json(cls, text: str) -> "PureState":
        obj = json.loads(text)
        amps = np.array([complex(re, im) for re, im in obj["amplitudes"]])
        return cls(int(obj["n_qubits"]), amps)


@dataclass(frozen=True)
class DensityMatrix:
    n_qubits: int
    matrix: np.ndarray
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        _check_qubits(self.n_qubits, mat.shape[0])
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if self.validate:
            if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
                raise ValueError("matrix is not Hermitian within tolerance")
            if abs(np.trace(mat).real - 1.0) > 1e-10:
                raise ValueError(f"trace is {np.trace(mat)}, expected 1")
            lo = np.linalg.eigvalsh(mat)[0]
            if lo < -ATOL_PSD:
                raise PositivityError(f"minimum eigenvalue {lo} below -{ATOL_PSD}")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        d = 2**n_qubits
        return cls(n_qubits, np.eye(d, dtype=complex) / d, validate=False)

    def to_json(self) -> str:
        return json.dumps({
            "n_qubits": self.n_qubits,
            "matrix": [[[float(e.real), float(e.imag)] for e in row] for row in self.matrix],
        })

    @classmethod
    def from_json(cls, text: str) -> "DensityMatrix":
        obj = json.loads(text)
        mat = np.array([[complex(re, im) for re, im in row] for row in obj["matrix"]])
        return cls(int(obj["n_qubits"]), mat)


def load_state(path) -> DensityMatrix:
    """Read a JSON state file (pure or density-matrix form) as a DensityMatrix."""
    with open(path) as fh:
        obj = json.load(fh)
    if "amplitudes" in obj:
        return pure_to_density(PureState.from_json(json.dumps(obj)))
    return DensityMatrix.from_json(json.dumps(obj))


def pure_to_density(psi: PureState) -> DensityMatrix:
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(psi.n_qubits, rho, validate=False)


def tensor(*rhos: DensityMatrix) -> DensityMatrix:
    mat = rhos[0].matrix
    n = rhos[0].n_qubits
    for r in rhos[1:]:
        mat = np.kron(mat, r.matrix)
        n += r.n_qubits
    return DensityMatrix(n, mat, validate=False)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not in `keep` (1-based indices, order preserved)."""
    keep = check_sites(keep, rho.n_qubits)
    if not keep:
        raise ValueError("keep must be non-empty")
    n = rho.n_qubits
    keep0 = [k - 1 for k in keep]
    drop0 = [i for i in range(n) if i not in keep0]
    t = rho.matrix.reshape([2] * (2 * n))
    # row axes are 0..n-1, column axes n..2n-1
    t = np.transpose(t, keep0 + drop0 + [n + a for a in keep0] + [n + a for a in drop0])
    dk, dd = 2 ** len(keep0), 2 ** len(drop0)
    t = t.reshape(dk, dd, dk, dd)
    out = np.einsum("abcb->ac", t)
    return DensityMatrix(len(keep0), out, validate=False)


def nodal_pairs(rho: DensityMatrix, nodal: int):
    """Yield the reduced two-qubit states (nodal, i) for every i != nodal,
    in increasing i."""
    if not 1 <= nodal <= rho.n_qubits:
        raise IndexError(f"nodal qubit {nodal} out of range")
    for i in range(1, rho.n_qubits + 1):
        if i != nodal:
            yield partial_trace(rho, (nodal, i))


def partial_transpose(rho: DensityMatrix, subsystem) -> np.ndarray:
    """Transpose the given qubits. Result is Hermitian, trace 1, possibly
    non-positive, so a plain matrix is returned."""
    subsystem = check_sites(subsystem, rho.n_qubits)
    n = rho.n_qubits
    t = rho.matrix.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for s in subsystem:
        a = s - 1
        perm[a], perm[n + a] = perm[n + a], perm[a]
    return np.transpose(t, perm).reshape(rho.dim, rho.dim)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho), in bits."""
    evals = np.linalg.eigvalsh(rho.matrix)
    if evals[0] < -ATOL_PSD:
        raise PositivityError(f"eigenvalue {evals[0]} below -{ATOL_PSD}")
    evals = np.clip(evals, 0.0, None)
    evals = evals[evals > 1e-12]
    return float(-np.sum(evals * np.log2(evals)))


def shannon_entropy(probs) -> np.ndarray:
    """Shannon entropy of each row (last axis) of outcome probabilities, in
    bits; negative entries count as zero."""
    p = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    keep = p > 1e-12
    terms = np.where(keep, p * np.log2(np.where(keep, p, 1.0)), 0.0)
    # added column by column, in order: the same sums as np.sum over a short
    # last axis, several times faster on the optimizers' large stacks
    total = terms[..., 0]
    for k in range(1, terms.shape[-1]):
        total = total + terms[..., k]
    return -total


def pauli_operator(labels) -> np.ndarray:
    op = PAULI[labels[0].upper()]
    for lab in labels[1:]:
        op = np.kron(op, PAULI[lab.upper()])
    return op


def pauli_expectation(rho: DensityMatrix, labels) -> float:
    """tr(sigma_{j1} x ... x sigma_{jN} rho); identity allowed per site."""
    if len(labels) != rho.n_qubits:
        raise ValueError(f"need {rho.n_qubits} labels, got {len(labels)}")
    val = np.trace(pauli_operator(labels) @ rho.matrix)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag}")
    return float(val.real)
