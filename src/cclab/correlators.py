"""Classical correlators: rescaled Pauli expectations and their genuine
maxima on the full register, and nodal-sum distributed correlators read from
the Fano forms of the (nodal, i) pairs."""
from __future__ import annotations

import itertools

import numpy as np

from .states import (PAULI_LABELS, DensityMatrix, fano, nodal_pairs, ordered_sum,
                     pauli_expectation)

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


def _pair_fano(rho: DensityMatrix, nodal: int) -> np.ndarray:
    return fano(nodal_pairs(rho.matrix[None], nodal)[0])


def fano_cmax(F: np.ndarray, mode: str = "same_pauli") -> np.ndarray:
    """max over Pauli labels (j, k) shared by the pairs of sum_i |F_i[j, k]|,
    for Fano forms F (..., pairs, 4, 4): for one pair its maximal correlator,
    over the (nodal, i) pairs the shared-direction distributed maximum."""
    t = np.abs(F[..., 1:, 1:])
    if mode == "same_pauli":
        t = np.diagonal(t, axis1=-2, axis2=-1)
    elif mode == "full_search":
        t = t.reshape(t.shape[:-2] + (9,))
    else:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    return ordered_sum(t.swapaxes(-2, -1)).max(axis=-1)


def distributed_correlator(rho: DensityMatrix, pair_labels, nodal: int = 1) -> float:
    """Sum of pairwise correlators C_{j1 ji} over pairs (nodal, i)."""
    j, k = (PAULI_LABELS.index(lab.upper()) for lab in pair_labels)  # ValueError unless two
    return float(ordered_sum(np.abs(_pair_fano(rho, nodal)[:, j, k])))


def distributed_cmax(rho: DensityMatrix, nodal: int = 1, mode: str = "same_pauli") -> float:
    """Maximal distributed pair correlator over pairs (nodal, i), with one
    Pauli assignment shared by every pair: max_j sum_i C_{jj}(rho_{1i}).
    The per-pair maxima sum is distributed_measure(rho, "cmax")."""
    return float(fano_cmax(_pair_fano(rho, nodal), mode))
