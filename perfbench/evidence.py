"""Record the layer-separation evidence and the baseline cross-check.

    python3 perfbench/evidence.py

Runs each workload once traced (seed 0) and writes perfbench/evidence.json:
the self-time share of each module per workload, the optimizer's share, the
traced grid and refinement cost per pair, the threads=1 versus threads=nproc
throughput of discord_table, and an untraced N=3 `cd` cost per sample, each
next to the figure ROADMAP.md quoted before this benchmark existed.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets up the import of cclab from the checkout)

SEED = 0
CD_SAMPLES = 24
ROADMAP = {
    "cd_ms_per_sample_N3": 78.0,
    "cd_grid_ms_per_pair": 0.37,
    "cd_refined_ms_per_pair": 42.0,
    "threads_400_cd_N3_s": {"1": 28.6, "4": 37.5, "8": 42.9},
}


def traced(name: str) -> tuple[dict, dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(SEED), "--trace", "1"],
                          capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{name}: {result['failed']} of {result['attempted']} checks failed")
    side = next(json.loads(line) for line in lines if line.startswith('{"module_self_share"'))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, side["module_self_share"], side["notes"]


def cd_ms_per_sample_n3() -> float:
    """Untraced refined `cd` at N=3 (pdc, p=0.2), threads=1, ms per sample."""
    from cclab import sampling
    cfg = sampling.SamplerConfig(n_qubits=3, count=CD_SAMPLES, master_seed=SEED)
    sampling.evaluate_ensemble(sampling.SamplerConfig(n_qubits=3, count=1), "pdc", 0.2, ["cd"])
    times = []
    for _ in range(3):
        t0 = perf_counter()
        sampling.evaluate_ensemble(cfg, "pdc", 0.2, ["cd"], threads=1)
        times.append((perf_counter() - t0) * 1e3 / CD_SAMPLES)
    return statistics.median(times)


def cd_grid_ms_per_pair_n3() -> float:
    """Untraced grid-only `cd` on the (1, 2) pairs of the same states, called
    back to back, ms of thread CPU time per pair."""
    from cclab import channels, measures, sampling, states
    cfg = sampling.SamplerConfig(n_qubits=3, count=CD_SAMPLES, master_seed=SEED)
    ch = channels.make_channel("pdc", 0.2)
    pairs = [states.partial_trace(channels.apply_uniform(
        states.pure_to_density(sampling.sample_state(cfg, i)), ch), (1, 2))
        for i in range(CD_SAMPLES)]
    times = []
    for _ in range(3):
        t0 = thread_time()
        for pair in pairs:
            measures.classical_discord_detailed(pair, "second", refine=False)
        times.append((thread_time() - t0) * 1e3 / CD_SAMPLES)
    return statistics.median(times)


def main() -> int:
    run.use_checkout_source()
    import workloads
    shares, optimizer, layer = {}, {}, {}
    for name in workloads.WORKLOADS:
        metrics, module_share, notes = traced(name)
        shares[name] = {k: round(v, 4) for k, v in module_share.items()}
        self_s = {k[:-len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
        total = sum(self_s.values()) or 1.0
        optimizer[name] = round((self_s.get("measures.classical_discord_detailed", 0.0)
                                 + self_s.get("measures.local_work", 0.0)) / total, 4)
        layer[name] = {"channels_plus_pauli_expectation": round(
            (self_s.get("channels.make_channel", 0.0) + self_s.get("channels.apply_uniform", 0.0)
             + self_s.get("states.pauli_expectation", 0.0)) / total, 4)}
        if name == "discord_table":
            discord = metrics, notes
    metrics, notes = discord
    nproc = os.cpu_count()
    cross_check = [
        {"figure": "refined cd, N=3, ms per sample (threads=1, untraced)",
         "roadmap": ROADMAP["cd_ms_per_sample_N3"],
         "benchmark": round(cd_ms_per_sample_n3(), 2)},
        {"figure": "cd grid stage alone, ms per pair (N=3 pairs back to back, untraced, "
                   "thread CPU time)",
         "roadmap": ROADMAP["cd_grid_ms_per_pair"],
         "benchmark": round(cd_grid_ms_per_pair_n3(), 3)},
        {"figure": "cd grid stage, ms per pair (probe right after each refined call in "
                   "traced discord_table, thread CPU time)",
         "roadmap": ROADMAP["cd_grid_ms_per_pair"],
         "benchmark": round(metrics["measures.cd.grid_ms_per_pair"], 3)},
        {"figure": "cd grid + refinement, ms per pair (traced discord_table, thread CPU time)",
         "roadmap": ROADMAP["cd_refined_ms_per_pair"],
         "benchmark": round(metrics["measures.cd.grid_ms_per_pair"]
                            + metrics["measures.cd.refine_ms_per_pair"], 2)},
        {"figure": f"throughput at threads=nproc over threads=1 (benchmark: discord_table, "
                   f"nproc={nproc}; ROADMAP: 400 N=3 cd samples, threads=4)",
         "roadmap": round(ROADMAP["threads_400_cd_N3_s"]["1"]
                          / ROADMAP["threads_400_cd_N3_s"]["4"], 3),
         "benchmark": round(notes["samples_per_s_untraced"] / notes["samples_per_s_threads1"], 3)},
    ]
    for row in cross_check:
        row["benchmark_over_roadmap"] = round(row["benchmark"] / row["roadmap"], 3)
    evidence = {
        "seed": SEED,
        "run_facts": run.run_facts(run.parse_args(["--workload", "discord_table",
                                                   "--trace", "1"])),
        "module_self_share": shares,
        "optimizer_self_share": optimizer,
        "channels_plus_pauli_expectation_share": {k: v["channels_plus_pauli_expectation"]
                                                  for k, v in layer.items()},
        "baseline_cross_check": cross_check,
        "roadmap_figures": ROADMAP,
    }
    with open(HERE / "evidence.json", "w") as fh:
        json.dump(evidence, fh, indent=1)
        fh.write("\n")
    print(json.dumps(evidence, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
