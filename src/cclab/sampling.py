"""Haar-uniform and W-class random-state ensembles, channel-sweep
distribution statistics, decay rates and D^CD vs D^I bound-line fitting.

Determinism contract: sample i is generated from SeedSequence(master_seed,
spawn_key=(i,)), so results are identical for any worker count; aggregation
happens on an index-ordered array.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channels import make_channel, apply_uniform
from .measures import evaluate_block
from .states import PureState, pure_to_density

ENSEMBLES = ("haar", "w_class")
# samples per evaluate_ensemble block: their pairs share one search per measure
BLOCK = 32


class FitError(ValueError):
    """Not enough usable bins to fit bound lines."""


@dataclass(frozen=True)
class SamplerConfig:
    n_qubits: int
    ensemble: str = "haar"
    count: int = 1000
    master_seed: int = 0
    wclass_real_amplitudes: bool = False

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValueError(f"n_qubits must be >= 2, got {self.n_qubits}")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.ensemble == "w_class" and self.n_qubits != 3:
            raise ValueError("w_class ensemble requires n_qubits = 3")


def _rng_for(cfg: SamplerConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(cfg.master_seed, spawn_key=(index,)))


def sample_state(cfg: SamplerConfig, index: int) -> PureState:
    rng = _rng_for(cfg, index)
    if cfg.ensemble == "haar":
        a = rng.standard_normal(2**cfg.n_qubits) + 1j * rng.standard_normal(2**cfg.n_qubits)
        return PureState(cfg.n_qubits, a / np.linalg.norm(a))
    # w_class: support on {|000>, |001>, |010>, |100>}
    if cfg.wclass_real_amplitudes:
        a = rng.standard_normal(4).astype(complex)
    else:
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    amps = np.zeros(8, dtype=complex)
    amps[[0, 1, 2, 4]] = a
    return PureState(3, amps)


@dataclass(frozen=True)
class DistributionSummary:
    measure: str
    channel: str
    p: float
    n: int
    mean: float
    std_dev: float
    median: float
    skewness: float
    moment_skewness: float
    bin_edges: np.ndarray = field(repr=False)
    frequencies: np.ndarray = field(repr=False)
    failures: int = 0


def summarize(values: np.ndarray, measure: str, channel: str, p: float,
              bins: int = 50, failures: int = 0) -> DistributionSummary:
    values = np.asarray(values, dtype=float)
    mean = float(np.mean(values))
    std = float(np.std(values))
    median = float(np.median(values))
    if std > 1e-12:
        pearson = 3.0 * (mean - median) / std
        m3 = float(np.mean((values - mean) ** 3)) / std**3
    else:
        pearson = 0.0
        m3 = 0.0
    counts, edges = np.histogram(values, bins=bins)
    freqs = counts / values.size
    return DistributionSummary(measure, channel, float(p), values.size, mean, std,
                               median, pearson, m3, edges, freqs, failures)


def evaluate_ensemble(cfg: SamplerConfig, channel_kind: str, p: float, measures,
                      nodal: int = 1, direction: str = "left",
                      threads: int = 1) -> np.ndarray:
    """Per-sample measure values, shape (count, len(measures)); row order is
    the sample index. The indices are cut into blocks of BLOCK, each evaluated
    by one `evaluate_block`, so the values depend on the index alone, never
    on the thread schedule."""
    ch = make_channel(channel_kind, p) if channel_kind != "none" else None
    out = np.empty((cfg.count, len(measures)), dtype=float)

    def work(start: int):
        rhos = []
        for i in range(start, min(start + BLOCK, cfg.count)):
            rho = pure_to_density(sample_state(cfg, i))
            rhos.append(apply_uniform(rho, ch) if ch is not None else rho)
        out[start:start + len(rhos)] = evaluate_block(rhos, measures, nodal, direction)[0]

    blocks = range(0, cfg.count, BLOCK)
    if threads <= 1:
        for start in blocks:
            work(start)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))
    return out


def ensemble_sweep(cfg: SamplerConfig, channel_kind: str, p_values, measures,
                   nodal: int = 1, direction: str = "left", bins: int = 50,
                   threads: int = 1) -> list[DistributionSummary]:
    summaries = []
    for p in p_values:
        values = evaluate_ensemble(cfg, channel_kind, p, measures, nodal,
                                   direction, threads)
        for j, m in enumerate(measures):
            summaries.append(summarize(values[:, j], m, channel_kind, p, bins))
    return summaries


def decay_rate(points) -> float:
    """Average finite-difference slope over all ordered (p1 < p2) pairs of
    (p, mean) points."""
    pts = sorted((float(p), float(m)) for p, m in points)
    if len(pts) < 2:
        raise ValueError("decay_rate needs at least two (p, mean) points")
    slopes = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            p1, m1 = pts[i]
            p2, m2 = pts[j]
            if p2 == p1:
                raise ValueError("duplicate p values")
            slopes.append((m2 - m1) / (p2 - p1))
    return float(np.mean(slopes))


@dataclass(frozen=True)
class BoundFit:
    m_u: float
    c_u: float
    m_l: float
    c_l: float
    bin_count: int
    residual: float


def fit_bounds(x_values, y_values, bin_count: int = 16,
               min_bin_fraction: float = 0.02) -> BoundFit:
    """Least-squares lines through per-bin maxima (upper) and minima (lower)
    of y over uniform bins of x.

    Bins holding less than `min_bin_fraction` of the samples are skipped along
    with empty ones: the lines bound the populated region of the scatter, and
    a handful of stragglers in a tail bin would otherwise swing the slopes."""
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    if x.size < bin_count:
        raise FitError(f"need at least {bin_count} points, got {x.size}")
    min_count = max(1, int(np.ceil(min_bin_fraction * x.size)))
    edges = np.linspace(x.min(), x.max(), bin_count + 1)
    idx = np.clip(np.digitize(x, edges) - 1, 0, bin_count - 1)
    ux, uy, lx, ly = [], [], [], []
    for b in range(bin_count):
        mask = idx == b
        if np.count_nonzero(mask) < min_count:
            continue
        xb, yb = x[mask], y[mask]
        ux.append(xb[np.argmax(yb)])
        uy.append(yb.max())
        lx.append(xb[np.argmin(yb)])
        ly.append(yb.min())
    if len(ux) < 3:
        raise FitError(f"only {len(ux)} usable bins, need >= 3")
    (m_u, c_u), res_u = _line_fit(ux, uy)
    (m_l, c_l), res_l = _line_fit(lx, ly)
    residual = float(np.sqrt((res_u**2 + res_l**2) / 2))
    return BoundFit(m_u, c_u, m_l, c_l, bin_count, residual)


def _line_fit(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    m, c = np.polyfit(xs, ys, 1)
    rms = float(np.sqrt(np.mean((m * xs + c - ys) ** 2)))
    return (float(m), float(c)), rms
