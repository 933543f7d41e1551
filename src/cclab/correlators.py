"""Classical correlators: rescaled Pauli expectations, genuine/non-genuine
maxima, the full per-subset correlator set and nodal-sum distributed
correlators."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .states import DensityMatrix, nodal_pairs, partial_trace, pauli_expectation

MODES = ("same_pauli", "full_search")


def parse_index(text: str) -> tuple[str, ...]:
    """Parse an index string like "zzz" or "xy.z"; "." marks identity."""
    labels = []
    for c in text.lower():
        if c == ".":
            labels.append("I")
        elif c in "xyz":
            labels.append(c.upper())
        else:
            raise ValueError(f"bad correlator index character {c!r}")
    if all(lab == "I" for lab in labels):
        raise ValueError("correlator index needs at least one non-identity site")
    return tuple(labels)


def correlator(rho: DensityMatrix, labels) -> float:
    """Rescaled correlator |tr(sigma x ... x sigma rho)| in [0, 1]."""
    return abs(pauli_expectation(rho, labels))


def _candidates(k: int, mode: str):
    if mode == "same_pauli":
        return [(lab,) * k for lab in ("X", "Y", "Z")]
    if mode == "full_search":
        return list(itertools.product("XYZ", repeat=k))
    raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def genuine_max(rho: DensityMatrix, mode: str = "same_pauli"):
    """Maximal genuine correlator and its argmax labels.

    Ties break to the first candidate in (X, Y, Z) lexicographic order."""
    best, best_labels = -1.0, None
    for labels in _candidates(rho.n_qubits, mode):
        v = correlator(rho, labels)
        if v > best + 1e-15:
            best, best_labels = v, labels
    return best, best_labels


def nongenuine_max(rho: DensityMatrix, keep, mode: str = "same_pauli"):
    """genuine_max of the reduced state on the kept qubits (|keep| < N)."""
    if len(tuple(keep)) >= rho.n_qubits:
        raise ValueError("keep must be a strict subset for non-genuine correlators")
    return genuine_max(partial_trace(rho, keep), mode)


@dataclass(frozen=True)
class CorrelatorSet:
    """Per subset size k, a map from each k-qubit subset to (C_k^max, labels)."""
    n_qubits: int
    levels: dict

    def values_at(self, k: int):
        return [v for v, _ in self.levels[k].values()]


def correlator_set(rho: DensityMatrix, mode: str = "same_pauli") -> CorrelatorSet:
    n = rho.n_qubits
    levels = {}
    for k in range(1, n + 1):
        entries = {}
        for subset in itertools.combinations(range(1, n + 1), k):
            if k == n:
                entries[subset] = genuine_max(rho, mode)
            else:
                entries[subset] = nongenuine_max(rho, subset, mode)
        levels[k] = entries
    return CorrelatorSet(n, levels)


def distributed_correlator(rho: DensityMatrix, pair_labels, nodal: int = 1) -> float:
    """Sum of pairwise correlators C_{j1 ji} over pairs (nodal, i)."""
    total = 0.0
    for rho2 in nodal_pairs(rho, nodal):
        total += correlator(rho2, pair_labels)
    return total


def distributed_cmax(rho: DensityMatrix, nodal: int = 1, mode: str = "same_pauli") -> float:
    """Maximal distributed pair correlator over pairs (nodal, i), with one
    Pauli assignment shared by every pair: max_j sum_i C_{jj}(rho_{1i}).
    The per-pair maxima sum is distributed_measure(rho, "cmax")."""
    pairs = list(nodal_pairs(rho, nodal))
    return max(sum(correlator(r2, labels) for r2 in pairs)
               for labels in _candidates(2, mode))
