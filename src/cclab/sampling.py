"""Haar-uniform and W-class random-state ensembles, channel-sweep
distribution statistics, decay rates and D^CD vs D^I bound-line fitting.

Determinism contract: sample i is generated from SeedSequence(master_seed,
spawn_key=(i,)), so results are identical for any worker count; aggregation
happens on an index-ordered array.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .channels import apply_forms, make_channel
from .measures import evaluate_block
from .states import PureState, fano

ENSEMBLES = ("haar", "w_class")
# samples per block of the ensemble engine: their pairs share one search per measure
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
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.ensemble == "w_class" and self.n_qubits != 3:
            raise ValueError("w_class ensemble requires n_qubits = 3")


def sample_state(cfg: SamplerConfig, index: int) -> PureState:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.master_seed, spawn_key=(index,)))
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


def draw_stack(cfg: SamplerConfig, indices) -> np.ndarray:
    """Density matrices (B, 2^n, 2^n) of sample_state(cfg, i), i in indices."""
    amps = np.array([sample_state(cfg, i).amplitudes for i in indices])
    return amps[:, :, None] * amps[:, None, :].conj()


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


def summarize(values: np.ndarray, measure: str, channel: str, p: float,
              bins: int = 50) -> DistributionSummary:
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
                               median, pearson, m3, edges, freqs)


def _evaluate_cells(cfg: SamplerConfig, cells, measures, nodal: int, direction: str,
                    threads: int) -> list[np.ndarray]:
    """Per-sample values (count, len(measures)) of each (channel_kind, p) cell,
    rows in index order. Each block of BLOCK indices is drawn once and turned
    into one (B, 4, ..., 4) stack of Fano forms for every cell, so a value
    depends on its index alone, never on the thread schedule or on the other
    cells."""
    chans = [make_channel(kind, p) if kind != "none" else None for kind, p in cells]
    outs = [np.empty((cfg.count, len(measures)), dtype=float) for _ in cells]
    sites = range(1, cfg.n_qubits + 1)

    def work(start: int):
        stop = min(start + BLOCK, cfg.count)
        drawn = fano(draw_stack(cfg, range(start, stop)))
        for ch, out in zip(chans, outs):
            forms = drawn if ch is None else apply_forms(drawn, ch, sites)
            out[start:stop] = evaluate_block(forms, measures, nodal, direction)[0]

    blocks = range(0, cfg.count, BLOCK)
    if threads <= 1:
        list(map(work, blocks))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))
    return outs


def evaluate_ensemble(cfg: SamplerConfig, channel_kind: str, p: float, measures,
                      nodal: int = 1, direction: str = "left",
                      threads: int = 1) -> np.ndarray:
    """Per-sample values (count, len(measures)) of one (channel_kind, p) cell."""
    return _evaluate_cells(cfg, [(channel_kind, p)], measures, nodal, direction, threads)[0]


def ensemble_sweep(cfg: SamplerConfig, channel_kinds, p_values, measures,
                   nodal: int = 1, direction: str = "left", bins: int = 50,
                   threads: int = 1) -> list[DistributionSummary]:
    """Summaries ordered by channel, then p, then measure; each sample is drawn once."""
    cells = [(kind, p) for kind in channel_kinds for p in p_values]
    values = _evaluate_cells(cfg, cells, measures, nodal, direction, threads)
    return [summarize(v[:, j], m, kind, p, bins)
            for (kind, p), v in zip(cells, values) for j, m in enumerate(measures)]


def decay_rate(points) -> float:
    """Average finite-difference slope over all ordered (p1 < p2) pairs of
    (p, mean) points."""
    pts = sorted((float(p), float(m)) for p, m in points)
    if len(pts) < 2:
        raise ValueError("decay_rate needs at least two (p, mean) points")
    if len({p for p, _ in pts}) < len(pts):
        raise ValueError("duplicate p values")
    return float(np.mean([(m2 - m1) / (p2 - p1) for (p1, m1), (p2, m2) in combinations(pts, 2)]))


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
