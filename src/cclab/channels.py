"""Local single-qubit Kraus channels: phase damping (PDC), depolarizing (DPC)
and amplitude damping (ADC), applied site by site to a stack of density
matrices through the channel's superoperator."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .states import PAULI, DensityMatrix, check_sites, stack_qubits

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
    def superop(self) -> np.ndarray:
        """S = sum_K K x conj(K) as S[r, c, r', c'], so that
        (sum_K K rho K^dagger)[r, c] = sum_{r', c'} S[r, c, r', c'] rho[r', c']."""
        return sum(np.kron(K, K.conj()) for K in self.kraus_ops).reshape(2, 2, 2, 2)


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


def apply_stack(mats: np.ndarray, ch: KrausChannel, sites) -> np.ndarray:
    """Apply `ch` independently to each qubit in `sites` (1-based, already
    checked) of every matrix of a (B, 2^n, 2^n) stack: one contraction with
    the superoperator per site."""
    b, n = len(mats), stack_qubits(mats)
    for s in sites:
        # axes: b, row bits before s, row bit s, row bits after s, the same for columns
        t = mats.reshape(b, 2 ** (s - 1), 2, 2 ** (n - s), 2 ** (s - 1), 2, 2 ** (n - s))
        t = np.tensordot(ch.superop, t, axes=([2, 3], [2, 5]))  # new bits s first
        mats = np.moveaxis(t, (0, 1), (2, 5)).reshape(mats.shape)
    return mats


def apply_local(rho: DensityMatrix, ch: KrausChannel, sites) -> DensityMatrix:
    """Apply `ch` independently to each qubit in `sites` (1-based).

    Sequential single-site maps on disjoint sites; identical to the full
    tensor-product Kraus sum by linearity."""
    sites = check_sites(sites, rho.n_qubits)
    return DensityMatrix(rho.n_qubits, apply_stack(rho.matrix[None], ch, sites)[0], validate=False)


def apply_uniform(rho: DensityMatrix, ch: KrausChannel) -> DensityMatrix:
    return apply_local(rho, ch, range(1, rho.n_qubits + 1))
