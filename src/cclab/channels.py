"""Local single-qubit Kraus channels: phase damping (PDC), depolarizing (DPC)
and amplitude damping (ADC), applied site by site to a stack of Fano forms
through the channel's Pauli transfer matrix."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .states import PAULI, PAULI_LABELS, DensityMatrix, check_sites, density, fano

KINDS = ("pdc", "dpc", "adc")


@dataclass(frozen=True)
class KrausChannel:
    kind: str
    p: float
    kraus_ops: tuple

    def __post_init__(self):
        total = sum(K.conj().T @ K for K in self.kraus_ops)
        if np.max(np.abs(total - np.eye(2))) > 1e-12:
            raise ValueError("Kraus operators violate completeness relation")

    @cached_property
    def ptm(self) -> np.ndarray:
        """Pauli transfer matrix R[i, j] = tr(sigma_i E(sigma_j)) / 2, built
        from the Kraus operators: the channel maps a qubit's Fano index as
        F'[i] = sum_j R[i, j] F[j] (Greenbaum, arXiv:1509.02921)."""
        images = [sum(K @ PAULI[lab] @ K.conj().T for K in self.kraus_ops) for lab in PAULI_LABELS]
        return fano(np.array(images) / 2).T


def make_channel(kind: str, p: float) -> KrausChannel:
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown channel kind {kind!r}, expected one of {KINDS}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise strength p={p} outside [0, 1]")
    eye = np.eye(2, dtype=complex)
    if kind == "pdc":
        ops = (np.sqrt(1 - p / 2) * eye, np.sqrt(p / 2) * PAULI["Z"])
    elif kind == "dpc":
        ops = (np.sqrt(1 - p) * eye,
               np.sqrt(p / 3) * PAULI["X"],
               np.sqrt(p / 3) * PAULI["Y"],
               np.sqrt(p / 3) * PAULI["Z"])
    else:  # adc
        ops = (np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex),
               np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex))
    return KrausChannel(kind, float(p), ops)


def apply_forms(F: np.ndarray, ch: KrausChannel, sites) -> np.ndarray:
    """Apply `ch` independently to each qubit in `sites` (1-based, already
    checked) of a (B, 4, ..., 4) stack of Fano forms: R @ F viewed as
    (before s, 4, after s) per site s, or (before, 4) @ R^T at the last site."""
    shape, n = F.shape, F.ndim - 1
    for s in sites:
        after = 4 ** (n - s)
        F = ch.ptm @ F.reshape(-1, 4, after) if after > 1 else F.reshape(-1, 4) @ ch.ptm.T
    return F.reshape(shape)


def apply_local(rho: DensityMatrix, ch: KrausChannel, sites) -> DensityMatrix:
    """Apply `ch` independently to each qubit in `sites` (1-based).

    Sequential single-site maps on disjoint sites; identical to the full
    tensor-product Kraus sum by linearity."""
    n = rho.n_qubits
    F = apply_forms(fano(rho.matrix[None]), ch, check_sites(sites, n))
    return DensityMatrix(n, density(F[0], n), validate=False)


def apply_uniform(rho: DensityMatrix, ch: KrausChannel) -> DensityMatrix:
    return apply_local(rho, ch, range(1, rho.n_qubits + 1))
