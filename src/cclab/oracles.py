"""Closed-form channel transforms of classical correlators, used as exact
oracles against the numeric channel engine.

The closed forms are written from the channels' laws; the engine builds its
Pauli transfer matrices from the Kraus operators, so the sweep tests one
against the other.
"""
from __future__ import annotations

import numpy as np

from .channels import apply_forms, apply_uniform, make_channel
from .correlators import correlator
from .sampling import SamplerConfig, draw_stack
from .states import PAULI_LABELS, DensityMatrix, PureState, fano, pure_to_density


def pdc_xy_multiplier(N: int, k: int, p: float) -> float:
    """(1-p)^k decay of a k-site correlator with all labels in the xy-plane
    after uniform phase damping on N qubits: each measured site keeps its
    Pauli with weight 1 - p/2 and flips its sign with weight p/2, and the
    N - k unmeasured sites do not enter."""
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return (1 - p) ** k


def pdc_multiplier(N: int, k: int, p: float, plane: str = "xy") -> float:
    """Correlator multiplier under PDC: the xy-plane sum, or exactly 1 for
    all-z correlators which commute with every Kraus operator."""
    xy = pdc_xy_multiplier(N, k, p)  # validates N, k and p for both planes
    return 1.0 if plane == "z" else xy


def dpc_genuine_multiplier(N: int, p: float) -> float:
    """(1 - 4p/3)^N decay of genuine same-Pauli correlators under uniform
    depolarizing noise."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return (1 - 4 * p / 3) ** N


def adc_xy_multiplier(k: int, p: float) -> float:
    """(1-p)^(k/2) decay of k-site xy-plane correlators under uniform
    amplitude damping."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return (1 - p) ** (k / 2)


def gw_adc_final_state(amplitudes, p: float) -> DensityMatrix:
    """Exact output of uniform amplitude damping on a generalized W state:
    (1-p) |gW><gW| + p |0...0><0...0|."""
    psi = PureState.generalized_w(amplitudes)
    rho = pure_to_density(psi).matrix.copy()
    rho *= (1 - p)
    rho[0, 0] += p
    return DensityMatrix(psi.n_qubits, rho, validate=False)


def gw_adc_z_correlator(amplitudes, k: int, p: float) -> float:
    """k-site z-direction correlator of a generalized W state after uniform
    amplitude damping: |p + (1-p) * sum_i (-1)^theta(k-i) |a_i|^2| with
    theta(x) = 1 for x <= 0 and 0 otherwise.

    In this index convention term i carries eigenvalue -1 when i >= k, so it
    is not the marginal on the k leftmost sites: at k = N it gives
    (1 + 2p)/3 for the W^3 state, whose all-z correlator is |1 - 2p|."""
    a = np.asarray(amplitudes, dtype=complex)
    if abs(np.sum(np.abs(a) ** 2) - 1.0) > 1e-10:
        raise ValueError("gW amplitudes must be normalized")
    N = a.shape[0]
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}")
    total = sum((1.0 if k - (i + 1) > 0 else -1.0) * abs(a[i]) ** 2 for i in range(N))
    return abs(p + (1 - p) * total)


def gghz_adc_zz(theta: float, p: float) -> float:
    """Pair z-correlator of a generalized GHZ state after uniform amplitude
    damping: 1 - 2 p (1-p) (1 - cos theta)."""
    return 1 - 2 * p * (1 - p) * (1 - np.cos(theta))


# ---------------------------------------------------------------------------
# Equivalence sweep: numeric channel engine vs the closed forms above.

def _max_dev(F_in, F_out, labels, mult: float = 1.0) -> float:
    """Largest |C(out) - mult * C(in)| over paired input/output Fano forms
    (B, 4, ..., 4)."""
    idx = (Ellipsis,) + tuple(PAULI_LABELS.index(lab) for lab in labels)
    return float(np.max(np.abs(np.abs(F_out[idx]) - mult * np.abs(F_in[idx]))))


def oracle_equivalence_sweep(n_values=(2, 3, 4, 5), p_values=None,
                             states_per_cell: int = 100, seed: int = 7,
                             include_mixed_pauli_dpc: bool = False):
    """Compare numeric channel+correlator output against every closed form.

    Returns a list of dict rows, one per (check, N, k, p) cell, each holding
    the max absolute deviation over the sampled states."""
    if p_values is None:
        p_values = [round(0.1 * i, 10) for i in range(11)]
    rows = []
    for n in n_values:
        cfg = SamplerConfig(n, count=states_per_cell, master_seed=seed + n)
        F = fano(draw_stack(cfg, range(states_per_cell)))  # input forms
        for p in p_values:
            ch = {kind: make_channel(kind, p) for kind in ("pdc", "dpc", "adc")}
            out = {kind: apply_forms(F, c, range(1, n + 1)) for kind, c in ch.items()}
            cells = []  # (check, k, max_dev)
            for k in range(1, n + 1):
                xs, zs = ("X",) * k + ("I",) * (n - k), ("Z",) * k + ("I",) * (n - k)
                cells += [("pdc_xy", k, _max_dev(F, out["pdc"], xs, pdc_xy_multiplier(n, k, p))),
                          ("pdc_z_invariance", k, _max_dev(F, out["pdc"], zs)),
                          ("adc_xy", k, _max_dev(F, out["adc"], xs, adc_xy_multiplier(k, p)))]
            dmult = abs(dpc_genuine_multiplier(n, p))
            cells += [(f"dpc_genuine_{lab.lower()}", n, _max_dev(F, out["dpc"], (lab,) * n, dmult))
                      for lab in "XYZ"]
            if include_mixed_pauli_dpc and n >= 2:
                mixed = ("X", "Z") + ("Y",) * (n - 2)
                cells.append(("dpc_genuine_mixed", n, _max_dev(F, out["dpc"], mixed, dmult)))

            # gW through ADC: exact output state, elementwise
            rng = np.random.default_rng(seed + 100 + n)
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a /= np.linalg.norm(a)
            exact = gw_adc_final_state(a, p).matrix
            numeric = apply_uniform(pure_to_density(PureState.generalized_w(a)), ch["adc"])
            cells.append(("gw_adc_state", n, float(np.max(np.abs(exact - numeric.matrix)))))

            # gGHZ through ADC: pair zz closed form
            theta = 0.4 + 0.2 * n
            og = apply_uniform(pure_to_density(PureState.generalized_ghz(n, theta)), ch["adc"])
            pair = correlator(og, ("Z", "Z") + ("I",) * (n - 2))
            cells.append(("gghz_adc_zz", 2, abs(pair - abs(gghz_adc_zz(theta, p)))))
            rows += [{"check": c, "N": n, "k": k, "p": p, "max_dev": d} for c, k, d in cells]
    return rows
