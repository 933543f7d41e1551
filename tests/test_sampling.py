from __future__ import annotations

import numpy as np
import pytest

from cclab.channels import apply_forms, apply_uniform, make_channel
from cclab.measures import evaluate_block, evaluate_measures
from cclab.sampling import (BLOCK, FitError, SamplerConfig, decay_rate, draw_stack,
                            ensemble_sweep, evaluate_ensemble, fit_bounds,
                            sample_state, summarize)
from cclab.states import fano, pure_to_density


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(3, ensemble="ghz")
    with pytest.raises(ValueError):
        SamplerConfig(3, count=0)
    with pytest.raises(ValueError):
        SamplerConfig(4, ensemble="w_class")
    with pytest.raises(ValueError, match="n_qubits"):
        SamplerConfig(1)
    with pytest.raises(ValueError, match="master_seed"):
        SamplerConfig(3, master_seed=-1)


def test_sample_determinism():
    cfg = SamplerConfig(3, count=5, master_seed=42)
    a = sample_state(cfg, 2)
    b = sample_state(cfg, 2)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = sample_state(cfg, 3)
    assert not np.allclose(a.amplitudes, c.amplitudes)


def test_sample_independent_of_count():
    # sample i depends only on (master_seed, i), not on how many are drawn
    a = sample_state(SamplerConfig(3, count=10, master_seed=1), 4)
    b = sample_state(SamplerConfig(3, count=1000, master_seed=1), 4)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_w_class_support():
    cfg = SamplerConfig(3, ensemble="w_class", count=3, master_seed=0)
    for psi in (sample_state(cfg, i) for i in range(cfg.count)):
        nz = np.nonzero(np.abs(psi.amplitudes) > 1e-12)[0]
        assert set(nz.tolist()) <= {0, 1, 2, 4}


def test_w_class_real_flag():
    cfg = SamplerConfig(3, ensemble="w_class", count=3, master_seed=0,
                        wclass_real_amplitudes=True)
    for psi in (sample_state(cfg, i) for i in range(cfg.count)):
        assert np.allclose(psi.amplitudes.imag, 0.0)
    complex_cfg = SamplerConfig(3, ensemble="w_class", count=1, master_seed=0)
    assert not np.allclose(sample_state(complex_cfg, 0).amplitudes.imag, 0.0)


def test_summarize_moments():
    vals = np.array([0.0, 1.0, 1.0, 2.0])
    s = summarize(vals, "mi", "pdc", 0.2, bins=4)
    assert s.mean == pytest.approx(1.0)
    assert s.median == pytest.approx(1.0)
    assert s.skewness == pytest.approx(0.0)
    assert s.frequencies.sum() == pytest.approx(1.0)
    assert len(s.bin_edges) == 5


def test_summarize_degenerate():
    s = summarize(np.full(10, 0.3), "mi", "pdc", 0.1)
    assert s.std_dev == pytest.approx(0.0, abs=1e-12)
    assert s.skewness == 0.0
    assert s.moment_skewness == 0.0


def test_evaluate_ensemble_thread_invariance():
    cfg = SamplerConfig(3, count=24, master_seed=5)
    one = evaluate_ensemble(cfg, "pdc", 0.3, ["dcmax", "mi"], threads=1)
    many = evaluate_ensemble(cfg, "pdc", 0.3, ["dcmax", "mi"], threads=8)
    assert np.array_equal(one, many)


def test_evaluate_ensemble_blocks_match_single_states():
    """Three blocks and a part of one give, bit for bit, the values of each
    sample's Fano form evaluated alone, on 1 thread and on 2; and the
    one-state DensityMatrix API, which rebuilds each noisy matrix, within
    1e-13."""
    cfg = SamplerConfig(3, count=3 * BLOCK + 5, master_seed=21)
    kinds = ["cd", "qd", "lw_half", "mi", "ln", "eof", "cmax", "dcmax", "genuine_cmax"]
    ch = make_channel("adc", 0.3)
    alone = np.array([evaluate_block(apply_forms(fano(draw_stack(cfg, [i])), ch, range(1, 4)),
                                     kinds, 2, "right")[0][0] for i in range(cfg.count)])
    for threads in (1, 2):
        assert np.array_equal(
            evaluate_ensemble(cfg, "adc", 0.3, kinds, 2, "right", threads=threads), alone)
    api = np.array([evaluate_measures(apply_uniform(pure_to_density(sample_state(cfg, i)), ch),
                                      kinds, 2, "right") for i in range(cfg.count)])
    assert np.max(np.abs(api - alone)) <= 1e-13


def test_criterion_9_count_spans_blocks():
    # criterion 9 compares 1 and 8 threads on 100 samples; that is a real
    # split only when they fall into more than one block
    assert 100 > BLOCK


def test_evaluate_ensemble_unknown_measure():
    cfg = SamplerConfig(3, count=2)
    with pytest.raises(ValueError):
        evaluate_ensemble(cfg, "pdc", 0.1, ["nope"])


def test_ensemble_sweep_shapes():
    cfg = SamplerConfig(3, count=30, master_seed=2)
    summaries = ensemble_sweep(cfg, ["dpc"], [0.2, 0.6], ["dcmax"], bins=10)
    assert len(summaries) == 2
    assert [s.p for s in summaries] == [0.2, 0.6]
    # depolarizing shrinks correlators monotonically
    assert summaries[1].mean < summaries[0].mean


@pytest.mark.parametrize("threads", [1, 2])
def test_ensemble_sweep_matches_one_cell_at_a_time(threads):
    """One sweep over every (channel, p) cell gives, bit for bit, the summary
    of each cell evaluated alone, in channel, p, measure order."""
    cfg = SamplerConfig(3, count=BLOCK + 9, master_seed=13)
    channels, p_values, kinds = ["pdc", "adc", "none"], [0.25, 0.7], ["mi", "dcmax", "cd"]
    swept = ensemble_sweep(cfg, channels, p_values, kinds, 2, "right", bins=7, threads=threads)
    alone = []
    for kind in channels:
        for p in p_values:
            values = evaluate_ensemble(cfg, kind, p, kinds, 2, "right", threads=threads)
            alone += [summarize(values[:, j], m, kind, p, 7) for j, m in enumerate(kinds)]
    assert len(swept) == len(alone) == 18
    for a, b in zip(swept, alone):
        assert (a.channel, a.p, a.measure, a.n) == (b.channel, b.p, b.measure, b.n)
        assert (a.mean, a.std_dev, a.median, a.skewness, a.moment_skewness) == \
            (b.mean, b.std_dev, b.median, b.skewness, b.moment_skewness)
        assert np.array_equal(a.bin_edges, b.bin_edges)
        assert np.array_equal(a.frequencies, b.frequencies)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dpc_discord_ordering(n):
    # heavier depolarizing always lowers the mean distributed discord
    cfg = SamplerConfig(n, count=30, master_seed=8)
    lo = evaluate_ensemble(cfg, "dpc", 0.2, ["cd"], threads=4)[:, 0]
    hi = evaluate_ensemble(cfg, "dpc", 0.6, ["cd"], threads=4)[:, 0]
    assert hi.mean() < lo.mean()


def test_decay_rate_exact_line():
    pts = [(0.2, 1.0), (0.4, 0.8), (0.6, 0.6)]
    assert decay_rate(pts) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        decay_rate([(0.2, 1.0)])
    with pytest.raises(ValueError):
        decay_rate([(0.2, 1.0), (0.2, 0.5)])


def test_decay_rate_from_summaries():
    cfg = SamplerConfig(3, count=20, master_seed=2)
    summaries = ensemble_sweep(cfg, ["dpc"], [0.2, 0.4, 0.6], ["dcmax"])
    assert decay_rate([(s.p, s.mean) for s in summaries]) < 0


def test_fit_bounds_recovers_band():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 2, 4000)
    y = x * rng.uniform(0.5, 1.0, 4000)  # band between y = x/2 and y = x
    bf = fit_bounds(x, y, 20)
    assert bf.m_u == pytest.approx(1.0, abs=0.05)
    assert bf.m_l == pytest.approx(0.5, abs=0.05)
    assert bf.residual < 0.05


def test_fit_bounds_errors():
    with pytest.raises(ValueError):
        fit_bounds([1, 2], [1, 2, 3])
    with pytest.raises(FitError):
        fit_bounds([1, 2, 3], [1, 2, 3], bin_count=10)
