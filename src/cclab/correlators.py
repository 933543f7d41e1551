"""Classical correlators: rescaled Pauli expectations and their genuine
maxima on the full register, and nodal-sum distributed correlators over the
(nodal, i) pairs, all read from Fano forms."""
from __future__ import annotations

import itertools

import numpy as np

from .states import (PAULI_LABELS, DensityMatrix, fano, ordered_sum, pair_forms,
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


def candidate_correlators(F: np.ndarray, k: int, mode: str = "same_pauli") -> np.ndarray:
    """|F| at the _candidates(k, mode) labels of the last k axes of Fano
    forms F (..., 4, ..., 4): shape (..., candidates)."""
    idx = [[PAULI_LABELS.index(lab) for lab in labels] for labels in _candidates(k, mode)]
    return np.abs(F[(Ellipsis,) + tuple(np.array(idx).T)])


def genuine_max(rho: DensityMatrix, mode: str = "same_pauli"):
    """Maximal genuine correlator and its argmax labels: the first candidate,
    in (X, Y, Z) lexicographic order, within 1e-15 of the maximum."""
    values = candidate_correlators(fano(rho.matrix), rho.n_qubits, mode)
    best = values.max()
    return float(best), _candidates(rho.n_qubits, mode)[int(np.argmax(values >= best - 1e-15))]


def fano_cmax(F: np.ndarray, mode: str = "same_pauli") -> np.ndarray:
    """max over Pauli labels (j, k) shared by the pairs of sum_i |F_i[j, k]|,
    for Fano forms F (..., pairs, 4, 4): for one pair its maximal correlator,
    over the (nodal, i) pairs the shared-direction distributed maximum."""
    return ordered_sum(candidate_correlators(F, 2, mode).swapaxes(-2, -1)).max(axis=-1)


def distributed_correlator(rho: DensityMatrix, pair_labels, nodal: int = 1) -> float:
    """Sum of pairwise correlators C_{j1 ji} over pairs (nodal, i)."""
    j, k = (PAULI_LABELS.index(lab.upper()) for lab in pair_labels)  # ValueError unless two
    return float(ordered_sum(np.abs(pair_forms(fano(rho.matrix[None]), nodal)[0, :, j, k])))


def distributed_cmax(rho: DensityMatrix, nodal: int = 1, mode: str = "same_pauli") -> float:
    """Maximal distributed pair correlator over pairs (nodal, i), with one
    Pauli assignment shared by every pair: max_j sum_i C_{jj}(rho_{1i}).
    The per-pair maxima sum is distributed_measure(rho, "cmax")."""
    return float(fano_cmax(pair_forms(fano(rho.matrix[None]), nodal)[0], mode))
