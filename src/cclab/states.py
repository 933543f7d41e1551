"""Few-qubit states: density matrices and their real Fano forms.

Conventions: qubit 1 is the leftmost tensor factor (most significant bit of
the computational-basis index), and qubit indices in the public API are
1-based. Entropies use log base 2 throughout.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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
    try:
        if "amplitudes" in obj:
            return pure_to_density(PureState.from_json(json.dumps(obj)))
        return DensityMatrix.from_json(json.dumps(obj))
    except (KeyError, TypeError) as exc:  # not an object, a key missing, a value of the wrong type
        raise ValueError(f"{path}: not a state file with n_qubits and amplitudes or matrix "
                         f"({exc!r})") from None


def pure_to_density(psi: PureState) -> DensityMatrix:
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(psi.n_qubits, rho, validate=False)


# The stack forms below work on (B, 2^n, 2^n) density matrices or their
# (B, 4, ..., 4) Fano forms; the DensityMatrix forms are their B = 1 case.

def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not in `keep` (1-based indices, order preserved)."""
    n = rho.n_qubits
    keep0 = [k - 1 for k in check_sites(keep, n)]
    if not keep0:
        raise ValueError("keep must be non-empty")
    drop0 = [i for i in range(n) if i not in keep0]
    # row axes are 0..n-1, column axes n..2n-1
    t = np.transpose(rho.matrix.reshape([2] * (2 * n)),
                     keep0 + drop0 + [n + a for a in keep0 + drop0])
    dk, dd = 2 ** len(keep0), 2 ** len(drop0)
    return DensityMatrix(len(keep0), np.einsum("abcb->ac", t.reshape(dk, dd, dk, dd)),
                         validate=False)


def pair_forms(F: np.ndarray, nodal: int) -> np.ndarray:
    """Fano forms (B, n - 1, 4, 4) of the reduced pairs (nodal, i), i != nodal
    in increasing order, of a stack of n-qubit Fano forms (B, 4, ..., 4):
    tracing a qubit out reads its index 0, so each pair is a slice."""
    n = F.ndim - 1
    G = np.moveaxis(F, check_sites((nodal,), n)[0], 1)  # nodal first, then the others
    return np.stack([G[(slice(None),) * 2 + (0,) * k + (slice(None),) + (0,) * (n - 2 - k)]
                     for k in range(n - 1)], axis=1)


def ordered_sum(values: np.ndarray) -> np.ndarray:
    """values[..., 0] + values[..., 1] + ..., added in this order: a row's sum
    does not depend on the stack it is in."""
    total = values[..., 0]
    for k in range(1, values.shape[-1]):
        total = total + values[..., k]
    return total


def fano(mats: np.ndarray) -> np.ndarray:
    """Fano forms F[..., j1, ..., jn] = tr(rho sigma_j1 x ... x sigma_jn),
    sigma_0 = I, (..., 4, ..., 4) of n-qubit states (..., 2^n, 2^n) (Schlienz &
    Mahler, PRA 52, 4396 (1995)); for a pair F[1:, 0], F[0, 1:] are the Bloch
    vectors and F[1:, 1:] the correlation matrix (Horodecki & Horodecki, PRA
    54, 1838 (1996)). Elementwise: stack-independent. Rejects an imaginary
    residue above 1e-10 (a non-Hermitian input)."""
    n, lead = int(mats.shape[-1]).bit_length() - 1, mats.shape[:-2]
    k = len(lead)
    # (..., r1, ..., rn, c1, ..., cn) -> (..., r1 c1, ..., rn cn)
    perm = list(range(k)) + [k + a for s in range(n) for a in (s, n + s)]
    t = mats.reshape(lead + (2,) * (2 * n)).transpose(perm)
    for s in range(n):
        # site s's (r c) axis replaced by the Pauli table sum_{r, c}
        # rho[r, c] sigma_j[c, r] over its nonzero entries, j = I, X, Y, Z
        t = t.reshape(-1, 4, 4 ** (n - 1 - s))
        t00, t01, t10, t11 = t[:, 0], t[:, 1], t[:, 2], t[:, 3]
        t = np.concatenate([t00 + t11, t01 + t10, 1j * (t01 - t10), t00 - t11], axis=1)
    residue = np.abs(t.imag).max(initial=0.0)
    if residue > 1e-10:
        raise ValueError(f"Pauli coefficient has imaginary residue {residue}")
    return t.real.reshape(lead + (4,) * n)


def density(F: np.ndarray, n: int) -> np.ndarray:
    """Density matrices (..., 2^n, 2^n) of n-qubit Fano forms (..., 4, ..., 4),
    rho = sum_j F[j1, ..., jn] sigma_j1 x ... x sigma_jn / 2^n: the inverse of
    `fano`. Elementwise: stack-independent."""
    lead = F.shape[:F.ndim - n]
    t = F * 0.5 ** n  # exact: the same bits as halving at every site
    for s in range(n):
        # site s's Pauli axis replaced by its (r c) axis: f0 + f3, f1 - i f2,
        # f1 + i f2 and f0 - f3 are the entries of sum_j f_j sigma_j
        t = t.reshape(-1, 4, 4 ** (n - 1 - s))
        f0, f1, f3, if2 = t[:, 0], t[:, 1], t[:, 3], 1j * t[:, 2]
        t = np.concatenate([f0 + f3, f1 - if2, f1 + if2, f0 - f3], axis=1)
    # (..., r1 c1, ..., rn cn) -> (..., r1, ..., rn, c1, ..., cn)
    k = len(lead)
    perm = list(range(k)) + [k + 2 * s for s in range(n)] + [k + 2 * s + 1 for s in range(n)]
    return t.reshape(lead + (2,) * (2 * n)).transpose(perm).reshape(lead + (2 ** n,) * 2)


def partial_transpose(rho: DensityMatrix, subsystem) -> np.ndarray:
    """Transpose the given qubits (1-based). Result is Hermitian, trace 1,
    possibly non-positive, so a plain matrix is returned."""
    n = rho.n_qubits
    perm = list(range(2 * n))  # row axes 0..n-1, column axes n..2n-1
    for s in check_sites(subsystem, n):
        perm[s - 1], perm[n + s - 1] = perm[n + s - 1], perm[s - 1]
    return np.transpose(rho.matrix.reshape([2] * (2 * n)), perm).reshape(rho.matrix.shape)


def entropy_stack(mats: np.ndarray) -> np.ndarray:
    """S(rho) = -tr(rho log2 rho) of each matrix of the stack, in bits."""
    evals = np.linalg.eigvalsh(mats)
    lo = evals[..., 0].min()
    if lo < -ATOL_PSD:
        raise PositivityError(f"eigenvalue {lo} below -{ATOL_PSD}")
    return shannon_entropy(evals)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho), in bits."""
    return float(entropy_stack(rho.matrix[None])[0])


def shannon_entropy(probs) -> np.ndarray:
    """Shannon entropy of each row (last axis) of outcome probabilities, in
    bits; negative entries count as zero."""
    p = np.maximum(np.asarray(probs, dtype=float), 0.0)
    keep = p > 1e-12
    terms = np.where(keep, p * np.log2(np.where(keep, p, 1.0)), 0.0)
    # added column by column, in order: the same sums as np.sum over a short
    # last axis, several times faster on the optimizers' large stacks
    return -ordered_sum(terms)


def pauli_expectation(rho: DensityMatrix, labels) -> float:
    """tr(sigma_{j1} x ... x sigma_{jN} rho), one entry of fano(rho.matrix);
    identity allowed per site."""
    if len(labels) != rho.n_qubits:
        raise ValueError(f"need {rho.n_qubits} labels, got {len(labels)}")
    return float(fano(rho.matrix)[tuple(PAULI_LABELS.index(lab.upper()) for lab in labels)])
