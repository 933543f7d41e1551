"""End-to-end acceptance suite. Each test prints one PASS/FAIL line via
record_acceptance; the numbers and tolerances are the package's published
reproduction targets."""
from __future__ import annotations

import os
import time

import numpy as np
import pytest

from cclab import cli, oracles
from cclab.channels import make_channel, apply_uniform
from cclab.discrimination import classify, generate_probe_trace, gw_probe_state
from cclab.measures import koashi_winter_check
from cclab.sampling import (SamplerConfig, decay_rate, evaluate_ensemble,
                            fit_bounds, sample_state)
from cclab.states import pure_to_density
from conftest import record_acceptance


def _check(criterion, ok, detail):
    record_acceptance(criterion, ok, detail)
    assert ok, detail


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rows = oracles.oracle_equivalence_sweep(
        n_values=(2, 3, 4, 5), states_per_cell=100, seed=7)
    worst = max(r["max_dev"] for r in rows)
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed <= 300
    _check(1, ok, f"oracle equivalence: {len(rows)} cells, worst dev "
                  f"{worst:.2e} (<=1e-10), {elapsed:.0f}s (<=300s)")


def test_criterion_2_wstate_traces(tmp_path):
    path = cli.recipe_fig1_wstate(str(tmp_path), points=21)
    data = np.genfromtxt(path, delimiter=",", names=True)
    p = data["p"]
    ok_pdc = np.max(np.abs(data["pdc"] - 1.0)) <= 1e-12
    ok_adc = np.max(np.abs(data["adc"] - (1 + 2 * p) / 3)) <= 1e-10
    ok_dpc = np.max(np.abs(data["dpc"] - np.abs(1 - 4 * p / 3) ** 3)) <= 1e-10
    ok_mono = bool(np.all(np.diff(data["adc"]) > 0))
    ok = ok_pdc and ok_adc and ok_dpc and ok_mono
    _check(2, ok, f"W3 traces: pdc const {ok_pdc}, adc=(1+2p)/3 {ok_adc}, "
                  f"dpc=|1-4p/3|^3 {ok_dpc}, adc strictly increasing {ok_mono}")


def test_criterion_3_distributed_cmax_table():
    t0 = time.time()
    targets = [("pdc", 3, 0.2, 0.639, 0.225),
               ("dpc", 3, 0.4, 0.174, 0.052),
               ("adc", 5, 0.6, 1.440, 0.195)]
    parts, ok = [], True
    for ch, n, p, mean_t, std_t in targets:
        cfg = SamplerConfig(n_qubits=n, count=10000, master_seed=11)
        v = evaluate_ensemble(cfg, ch, p, ["dcmax"], threads=1)[:, 0]
        mean, std = float(np.mean(v)), float(np.std(v))
        cell = abs(mean - mean_t) <= 0.02 and abs(std - std_t) <= 0.02
        ok = ok and cell
        parts.append(f"{ch} N{n} p{p}: mean {mean:.3f} (target {mean_t}), "
                     f"std {std:.3f} (target {std_t})")
    elapsed = time.time() - t0
    ok = ok and elapsed <= 600
    _check(3, ok, "; ".join(parts) + f"; {elapsed:.0f}s (<=600s)")


def test_criterion_4_discord_and_local_work_tables():
    parts, ok = [], True

    cfg = SamplerConfig(n_qubits=3, count=1000, master_seed=11)
    v = evaluate_ensemble(cfg, "pdc", 0.2, ["lw", "lw_half"], threads=1)
    lw2, lwh = float(np.mean(v[:, 0])), float(np.mean(v[:, 1]))
    lw_ok = min(abs(lw2 - 0.583), abs(lwh - 0.583)) <= 0.05
    ok = ok and lw_ok
    parts.append(f"D^LW pdc N3 p0.2 target 0.583: two-sided {lw2:.3f}, "
                 f"half one-sided {lwh:.3f} (at least one within 0.05: {lw_ok})")

    cfg = SamplerConfig(n_qubits=3, count=1000, master_seed=11)
    v = evaluate_ensemble(cfg, "dpc", 0.6, ["cd"], threads=1)[:, 0]
    cd_dpc = float(np.mean(v))
    cell = abs(cd_dpc - 0.001) <= 0.005
    ok = ok and cell
    parts.append(f"D^CD dpc N3 p0.6: {cd_dpc:.4f} (target 0.001 +- 0.005)")

    cfg = SamplerConfig(n_qubits=4, count=1000, master_seed=11)
    v = evaluate_ensemble(cfg, "adc", 0.2, ["cd"], threads=1)[:, 0]
    cd_adc = float(np.mean(v))
    cell = abs(cd_adc - 0.457) <= 0.05
    ok = ok and cell
    parts.append(f"D^CD adc N4 p0.2: {cd_adc:.3f} (target 0.457 +- 0.05)")

    _check(4, ok, "; ".join(parts))


def test_criterion_5_monogamy_bound_property():
    violations = 0
    total = 0
    for n in (3, 4, 5):
        cfg = SamplerConfig(n_qubits=n, count=1000, master_seed=23)
        states = [pure_to_density(sample_state(cfg, i)) for i in range(cfg.count)]
        for kind in ("pdc", "dpc", "adc"):
            for p in (0.0, 0.3, 0.6):
                ch = make_channel(kind, p) if p > 0 else None
                for rho in states:
                    out = apply_uniform(rho, ch) if ch else rho
                    res = koashi_winter_check(out, refine=False, grid=(24, 12))
                    total += 1
                    violations += not res["holds"]
    ok = violations == 0
    _check(5, ok, f"monogamy bound: {violations} violations in {total} "
                  f"noisy states (grid-only discord underestimates the lhs)")


def _mi_cd_scatter(channel, n, p, count, seed=11):
    """Distributed mutual-information / classical-discord pairs; grid-only
    discord keeps 10^4 samples tractable and only shifts the envelope down."""
    from cclab.measures import classical_discord_detailed, mutual_information
    from cclab.states import partial_trace
    cfg = SamplerConfig(n_qubits=n, count=count, master_seed=seed)
    ch = make_channel(channel, p)
    xs, ys = np.empty(count), np.empty(count)
    for i in range(count):
        out = apply_uniform(pure_to_density(sample_state(cfg, i)), ch)
        mi = cd = 0.0
        for j in range(2, n + 1):
            pair = partial_trace(out, (1, j))
            mi += mutual_information(pair)
            cd += classical_discord_detailed(pair, "second", refine=False).value
        xs[i], ys[i] = mi, cd
    return xs, ys


def test_criterion_6_bound_line_fits():
    parts, ok = [], True
    xs, ys = _mi_cd_scatter("pdc", 3, 0.2, 10000)
    bf = fit_bounds(xs, ys, 16)
    cell = 0.95 <= bf.m_u <= 1.02 and 0.45 <= bf.m_l <= 0.57
    ok = ok and cell
    parts.append(f"pdc N3 p0.2: m_u {bf.m_u:.3f} (in [0.95, 1.02]), "
                 f"m_l {bf.m_l:.3f} (in [0.45, 0.57])")

    xs, ys = _mi_cd_scatter("adc", 5, 0.6, 10000)
    bf = fit_bounds(xs, ys, 16)
    cell = 0.72 <= bf.m_u <= 0.81
    ok = ok and cell
    parts.append(f"adc N5 p0.6: m_u {bf.m_u:.3f} (in [0.72, 0.81])")
    _check(6, ok, "; ".join(parts))


def test_criterion_7_channel_discrimination():
    p_grid = list(np.linspace(0.05, 0.5, 11))
    rng = np.random.default_rng(5)
    parts, ok = [], True
    for kind in ("pdc", "dpc", "adc"):
        hits = 0
        for _ in range(100):
            a, b = rng.uniform(0, 1, 2)
            g1, g2 = rng.uniform(0, 2 * np.pi, 2)
            probe = gw_probe_state(a, b, g1, g2)
            trace = generate_probe_trace(probe, make_channel(kind, 0.1), p_grid)
            hits += classify(trace).label == kind
        ok = ok and hits == 100
        parts.append(f"{kind} noiseless {hits}/100")
    for kind in ("pdc", "dpc", "adc"):
        hits = 0
        for _ in range(1000):
            a, b = rng.uniform(0, 1, 2)
            g1, g2 = rng.uniform(0, 2 * np.pi, 2)
            probe = gw_probe_state(a, b, g1, g2)
            trace = generate_probe_trace(probe, make_channel(kind, 0.1), p_grid,
                                         noise_sigma=0.01, rng=rng)
            hits += classify(trace).label == kind
        ok = ok and hits >= 950
        parts.append(f"{kind} sigma=0.01 {hits}/1000 (>=950)")
    _check(7, ok, "; ".join(parts))


def test_criterion_8_decay_rates():
    rates = {}
    for label, ens in (("ghz", "haar"), ("w", "w_class")):
        cfg = SamplerConfig(n_qubits=3, ensemble=ens, count=2000, master_seed=11)
        means = []
        for p in (0.2, 0.4, 0.6):
            v = evaluate_ensemble(cfg, "pdc", p, ["dcmax"], threads=1)[:, 0]
            means.append((p, float(np.mean(v))))
        rates[label] = decay_rate(means)
    cfg = SamplerConfig(n_qubits=3, count=2000, master_seed=11)
    means = []
    for p in (0.2, 0.4, 0.6):
        v = evaluate_ensemble(cfg, "adc", p, ["dcmax"], threads=1)[:, 0]
        means.append((p, float(np.mean(v))))
    r_adc = decay_rate(means)

    ok_ghz = abs(abs(rates["ghz"]) - 0.225) <= 0.05
    ok_w = abs(abs(rates["w"]) - 0.0675) <= 0.05
    ok_flip = rates["ghz"] < 0 and r_adc > 0
    ok = ok_ghz and ok_w and ok_flip
    _check(8, ok, f"PDC |R| ghz-class {abs(rates['ghz']):.3f} (0.225 +- 0.05), "
                  f"w-class {abs(rates['w']):.4f} (0.0675 +- 0.05); "
                  f"ADC R {r_adc:+.3f} > 0 vs PDC {rates['ghz']:+.3f} < 0 "
                  f"(sign flip {ok_flip})")


def test_criterion_9_byte_identical_reruns(tmp_path):
    base = {
        "experiment": "det", "channels": ["pdc", "adc"], "p_grid": [0.1, 0.5],
        "measures": ["dcmax", "mi"], "bins": 12,
        "sampler": {"n_qubits": 3, "count": 100, "master_seed": 9},
    }
    outputs = {}
    for threads in (1, 8):
        outdir = tmp_path / f"t{threads}"
        cfg = cli.config_from_dict({**base, "output_dir": str(outdir),
                                    "threads": threads})
        manifest = cli.run_experiment(cfg)
        outputs[threads] = {os.path.basename(f): open(f, "rb").read()
                            for f in manifest.outputs}
    same = outputs[1] == outputs[8]
    n_files = len(outputs[1])
    _check(9, same, f"{n_files} CSVs byte-identical across 1 and 8 threads: {same}")
