"""Closed-form channel transforms of classical correlators, used as exact
oracles against the numeric Kraus engine.

Binomial coefficients are exact integers (math.comb), so the alternating sums
carry no cancellation error up to the n <= 8 range this package targets.
"""
from __future__ import annotations

from math import comb

import numpy as np

from .channels import make_channel, apply_uniform
from .correlators import correlator
from .states import DensityMatrix, PureState, pure_to_density


def pdc_xy_multiplier(N: int, k: int, p: float) -> float:
    """Decay factor of a k-site correlator with all labels in the xy-plane
    after uniform phase damping on N qubits.

    Sum over r (total sigma_z insertions) and q (insertions hitting measured
    sites, each flipping the sign of an anticommuting Pauli)."""
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    total = 0.0
    for r in range(N + 1):
        coeff = sum((-1) ** q * comb(k, q) * comb(N - k, r - q)
                    for q in range(min(r, k) + 1))
        total += coeff * (p / 2) ** r * (1 - p / 2) ** (N - r)
    return total


def pdc_multiplier(N: int, k: int, p: float, plane: str = "xy") -> float:
    """Correlator multiplier under PDC: the xy-plane sum, or exactly 1 for
    all-z correlators which commute with every Kraus operator."""
    if plane == "z":
        return 1.0
    return pdc_xy_multiplier(N, k, p)


def pdc_distributed_multiplier(N: int, p: float) -> float:
    """Coefficient mapping the noiseless nodal pair-correlator sum to its
    value after uniform PDC (xy-plane pairs); the r < 2 terms are grouped
    into the (1 - p/2)^(N-1) (1 - 5p/2 + Np/2) prefactor."""
    head = (1 - p / 2) ** (N - 1) * (1 - 5 * p / 2 + N * p / 2)
    tail = 0.0
    for r in range(2, N + 1):
        coeff = sum((-1) ** q * comb(2, q) * comb(N - 2, r - q) for q in range(3))
        tail += coeff * (p / 2) ** r * (1 - p / 2) ** (N - r)
    return head + tail


def dpc_genuine_multiplier(N: int, p: float) -> float:
    """(1 - 4p/3)^N decay of genuine same-Pauli correlators under uniform
    depolarizing noise."""
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


def gw_adc_z_correlator(amplitudes, k: int, p: float, signed: bool = False) -> float:
    """k-site z-direction correlator of a generalized W state after uniform
    amplitude damping: p + (1-p) * sum_i (-1)^theta(k-i) |a_i|^2 with
    theta(x) = 1 for x <= 0 and 0 otherwise.

    Note this closed form uses an index-placement convention that differs from
    the leading-sites marginal (see gw_adc_z_correlator_leading); the signed
    flag skips the rescaling absolute value."""
    a = np.asarray(amplitudes, dtype=complex)
    if abs(np.sum(np.abs(a) ** 2) - 1.0) > 1e-10:
        raise ValueError("gW amplitudes must be normalized")
    N = a.shape[0]
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}")
    total = sum((1.0 if k - (i + 1) > 0 else -1.0) * abs(a[i]) ** 2 for i in range(N))
    val = p + (1 - p) * total
    return val if signed else abs(val)


def gw_adc_z_correlator_leading(amplitudes, k: int, p: float, signed: bool = False) -> float:
    """Same quantity for the z-correlator on the k leftmost sites, derived
    directly from the (1-p)|gW><gW| + p|0...0><0...0| output state.

    With a_i holding the excitation at basis integer 2^(i-1), the excitation
    of term i sits at site N-i+1 from the left, so terms with i > N-k carry
    eigenvalue -1."""
    a = np.asarray(amplitudes, dtype=complex)
    if abs(np.sum(np.abs(a) ** 2) - 1.0) > 1e-10:
        raise ValueError("gW amplitudes must be normalized")
    N = a.shape[0]
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}")
    total = sum((-1.0 if (i + 1) > N - k else 1.0) * abs(a[i]) ** 2 for i in range(N))
    val = p + (1 - p) * total
    return val if signed else abs(val)


def gw_pair_xx(amplitudes, i: int, p: float, signed: bool = False) -> float:
    """Two-site C_xx = C_yy = (1-p)(a_1 a_i^* + a_i a_1^*) for the (1, i)
    reduced pair of a noisy gW state."""
    a = np.asarray(amplitudes, dtype=complex)
    val = (1 - p) * (2 * (a[0] * a[i - 1].conj()).real)
    return val if signed else abs(val)


def gghz_adc_zz(theta: float, p: float) -> float:
    """Pair z-correlator of a generalized GHZ state after uniform amplitude
    damping: 1 - 2 p (1-p) (1 - cos theta)."""
    return 1 - 2 * p * (1 - p) * (1 - np.cos(theta))


def discrimination_closed_forms(N: int, p: float, c_before: float = 1.0) -> dict:
    """All-z genuine correlator of a gW^N probe after each channel, in the
    rescaled |.| convention.

    The noiseless gW value is 1 (every branch holds exactly one excitation),
    so ADC gives |2p - 1| and DPC scales by |1 - 4p/3|^N."""
    return {
        "pdc": c_before,
        "adc": abs((1 - p) * (-c_before) + p),
        "dpc": abs(1 - 4 * p / 3) ** N * c_before,
    }


# ---------------------------------------------------------------------------
# Equivalence sweep: numeric channel engine vs the closed forms above.

def _haar_states(n: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        yield PureState(n, a / np.linalg.norm(a))


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
        states = [pure_to_density(s) for s in _haar_states(n, states_per_cell, seed + n)]
        for p in p_values:
            ch = {kind: make_channel(kind, p) for kind in ("pdc", "dpc", "adc")}
            out = {kind: [apply_uniform(r, c) for r in states] for kind, c in ch.items()}
            for k in range(1, n + 1):
                labels = ("X",) * k + ("I",) * (n - k)
                mult = pdc_xy_multiplier(n, k, p)
                dev = max(abs(correlator(o, labels) - mult * correlator(r, labels))
                          for r, o in zip(states, out["pdc"]))
                rows.append({"check": "pdc_xy", "N": n, "k": k, "p": p, "max_dev": dev})

                zlabels = ("Z",) * k + ("I",) * (n - k)
                dev = max(abs(correlator(o, zlabels) - correlator(r, zlabels))
                          for r, o in zip(states, out["pdc"]))
                rows.append({"check": "pdc_z_invariance", "N": n, "k": k, "p": p, "max_dev": dev})

                amult = adc_xy_multiplier(k, p)
                dev = max(abs(correlator(o, labels) - amult * correlator(r, labels))
                          for r, o in zip(states, out["adc"]))
                rows.append({"check": "adc_xy", "N": n, "k": k, "p": p, "max_dev": dev})

            dmult = abs(dpc_genuine_multiplier(n, p))
            for lab in ("X", "Y", "Z"):
                glabels = (lab,) * n
                dev = max(abs(correlator(o, glabels) - dmult * correlator(r, glabels))
                          for r, o in zip(states, out["dpc"]))
                rows.append({"check": f"dpc_genuine_{lab.lower()}", "N": n, "k": n,
                             "p": p, "max_dev": dev})
            if include_mixed_pauli_dpc and n >= 2:
                mlabels = ("X", "Z") + ("Y",) * (n - 2)
                dev = max(abs(correlator(o, mlabels) - dmult * correlator(r, mlabels))
                          for r, o in zip(states, out["dpc"]))
                rows.append({"check": "dpc_genuine_mixed", "N": n, "k": n,
                             "p": p, "max_dev": dev})

            # gW through ADC: exact output state, elementwise
            rng = np.random.default_rng(seed + 100 + n)
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a /= np.linalg.norm(a)
            exact = gw_adc_final_state(a, p)
            numeric = apply_uniform(pure_to_density(PureState.generalized_w(a)),
                                    make_channel("adc", p))
            dev = float(np.max(np.abs(exact.matrix - numeric.matrix)))
            rows.append({"check": "gw_adc_state", "N": n, "k": n, "p": p, "max_dev": dev})

            # gGHZ through ADC: pair zz closed form
            theta = 0.4 + 0.2 * n
            g = pure_to_density(PureState.generalized_ghz(n, theta))
            og = apply_uniform(g, make_channel("adc", p))
            pair = correlator(og, ("Z", "Z") + ("I",) * (n - 2))
            dev = abs(pair - abs(gghz_adc_zz(theta, p)))
            rows.append({"check": "gghz_adc_zz", "N": n, "k": 2, "p": p, "max_dev": dev})
    return rows
