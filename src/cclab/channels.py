"""Local single-qubit Kraus channels: phase damping (PDC), depolarizing (DPC)
and amplitude damping (ADC), applied site by site to a density matrix."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import PAULI, DensityMatrix, check_sites

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


def _apply_single_site(mat: np.ndarray, ops, site0: int, n: int) -> np.ndarray:
    """One-site CPTP map on the flattened 2^n x 2^n matrix (0-based site)."""
    t = mat.reshape([2] * (2 * n))
    out = np.zeros_like(t)
    for K in ops:
        # contract K with the row axis and K^dagger with the column axis
        term = np.tensordot(K, t, axes=([1], [site0]))
        term = np.moveaxis(term, 0, site0)
        term = np.tensordot(term, K.conj(), axes=([n + site0], [1]))
        term = np.moveaxis(term, -1, n + site0)
        out += term
    return out.reshape(mat.shape)


def apply_local(rho: DensityMatrix, ch: KrausChannel, sites) -> DensityMatrix:
    """Apply `ch` independently to each qubit in `sites` (1-based).

    Sequential single-site maps on disjoint sites; identical to the full
    tensor-product Kraus sum by linearity."""
    sites = check_sites(sites, rho.n_qubits)
    mat = rho.matrix
    for s in sites:
        mat = _apply_single_site(mat, ch.kraus_ops, s - 1, rho.n_qubits)
    return DensityMatrix(rho.n_qubits, mat, validate=False)


def apply_uniform(rho: DensityMatrix, ch: KrausChannel) -> DensityMatrix:
    return apply_local(rho, ch, range(1, rho.n_qubits + 1))
