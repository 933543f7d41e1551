"""Channel discrimination from all-z correlator traces of a generalized-W
probe: constant difference means phase damping, linear-in-p means amplitude
damping, power-N decay means depolarizing."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply_forms, make_channel
from .states import PureState, fano, pure_to_density

LABELS = ("pdc", "adc", "dpc")
# a difference trace with RMS at most FLAT_THRESHOLD is phase damping
FLAT_THRESHOLD = 0.025
# a best-fitting model with RMS residual above RESIDUAL_CAP explains nothing
RESIDUAL_CAP = 0.5


@dataclass(frozen=True)
class ProbeTrace:
    n_qubits: int
    samples: tuple  # ((p, c_before, c_after), ...)

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValueError(f"n_qubits must be >= 2, got {self.n_qubits}")
        ps = [s[0] for s in self.samples]
        if len(set(ps)) < 3:
            raise ValueError("need at least 3 distinct p values")
        for p, cb, ca in self.samples:
            if not (0 <= cb <= 1 + 1e-9 and -1e-9 <= ca <= 1 + 1e-9):
                raise ValueError(f"correlators out of [0, 1] at p={p}")


@dataclass(frozen=True)
class DiscriminationVerdict:
    label: str  # pdc | adc | dpc | inconclusive
    residuals: dict


def _rms(x) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def classify(trace: ProbeTrace, threshold: float = 0.02) -> DiscriminationVerdict:
    """Residual competition between the three channel models on the
    difference trace Delta(p) = c_before - c_after.

    PDC predicts Delta = 0, ADC an affine dependence on p, DPC the shape
    c_before * (1 - |1 - 4p/3|^N). The winner must beat the runner-up by
    `threshold`; a flat trace short-circuits to PDC."""
    p, c_before, c_after = np.array(trace.samples, dtype=float).T
    delta = c_before - c_after
    N = trace.n_qubits

    res_pdc = _rms(delta)
    m, c = np.polyfit(p, delta, 1)
    res_adc = _rms(m * p + c - delta)
    dpc_model = c_before * (1 - np.abs(1 - 4 * p / 3) ** N)
    res_dpc = _rms(dpc_model - delta)
    residuals = {"pdc": res_pdc, "adc": res_adc, "dpc": res_dpc}

    if res_pdc <= FLAT_THRESHOLD:
        return DiscriminationVerdict("pdc", residuals)

    best, second = sorted(("adc", "dpc"), key=residuals.get)
    if residuals[best] > RESIDUAL_CAP:
        return DiscriminationVerdict("inconclusive", residuals)
    if residuals[second] - residuals[best] < threshold:
        return DiscriminationVerdict("inconclusive", residuals)
    return DiscriminationVerdict(best, residuals)


def gw_probe_state(alpha: float, beta: float, gamma1: float = 0.0,
                   gamma2: float = 0.0) -> PureState:
    """Three-qubit probe cos(a)|001> + e^{ig1} sin(a)cos(b)|010> +
    e^{ig2} sin(a)sin(b)|100>."""
    a = np.array([np.cos(alpha),
                  np.exp(1j * gamma1) * np.sin(alpha) * np.cos(beta),
                  np.exp(1j * gamma2) * np.sin(alpha) * np.sin(beta)])
    return PureState.generalized_w(a)


def generate_probe_trace(probe: PureState, channel: KrausChannel, p_values,
                         noise_sigma: float = 0.0, rng=None) -> ProbeTrace:
    """Run the numeric channel engine on two copies of the probe and record
    before/after all-z genuine correlators, optionally with Gaussian
    measurement noise of width `noise_sigma`."""
    if rng is None:
        rng = np.random.default_rng()
    n = probe.n_qubits
    F = fano(pure_to_density(probe).matrix[None])
    allz = (0,) + (3,) * n  # the all-z entry of the one form in F
    cb = abs(float(F[allz]))
    samples = []
    for p in p_values:
        ch = channel if channel.p == p else make_channel(channel.kind, p)
        b, a = cb, abs(float(apply_forms(F, ch, range(1, n + 1))[allz]))
        if noise_sigma > 0:
            b = float(np.clip(b + rng.normal(0, noise_sigma), 0, 1))
            a = float(np.clip(a + rng.normal(0, noise_sigma), 0, 1))
        samples.append((float(p), b, a))
    return ProbeTrace(n, tuple(samples))
