"""The benchmark's traced pass reaches every function it names.

perfbench/tracing.py wraps the functions listed in its LAYERS and silently
leaves out the metrics of a name that no longer resolves, so a renamed or
deleted function would drop metric names that BENCHMARK.json lists. These
checks fail first: every LAYERS name must be a callable attribute of its
cclab module, and a traced run must end in one strict-JSON result line with
exactly the per-layer metric names of BENCHMARK.json."""
from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_every_traced_name_is_a_callable():
    missing = [f"{layer}.{name}" for layer, names in _perfbench("tracing").LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"cclab.{layer}"), name, None))]
    assert missing == []


# discord_table runs the optimizers; correlator_sweep and oracle_probe the
# Fano-form correlators and the full-register channels
@pytest.mark.parametrize("workload", ["discord_table", "correlator_sweep", "oracle_probe"])
def test_traced_run_reports_every_per_layer_metric(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "0", "--trace", "1"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in benchmark["per_layer"]}
    assert len(benchmark["per_layer"]) == 70
    if workload == "correlator_sweep":
        # one sweep draws each sample once for all of its (channel, p) cells
        sweep = _perfbench("workloads").WORKLOADS[workload]
        calls = result["metrics"]["sampling.sample_state.calls"]["value"]
        assert calls == sweep.trace_rounds * sweep.COUNT
