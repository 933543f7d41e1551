"""Run one cclab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload discord_table --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout: cclab is imported from ./src, and
scratch files go to ./.perfbench_tmp and ./.perfbench_out. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones
(samples_per_s, setup_s, peak_rss_mb); with --trace 1 they are the per-layer
metrics of a traced pass. The lines before it give every metric by name with
its unit, fail_frac, the module self-time shares of a traced run, and the
run facts.

    --selftest   check that the reference comparison catches a value
                 perturbed by 1e-4 (exit 0 when it does)
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SCRATCH = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
MIN_ROUNDS = 3
PERTURBATION = 1e-4
PROBE_REF_S = 0.0107  # machine_probe() time that samples_per_s and setup_s are scaled to
# Pinned for this process and the set-up processes it starts, unless the
# caller already set them: every matrix here is at most 32x32, and the
# discord workload runs its own thread pool.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics beyond <module>.<function>.calls/.self_s: name -> unit.
# A ratio over an empty base (no such call on a workload) reads 0.
DERIVED = {
    "measures.cd.grid_ms_per_pair": "ms",
    "measures.cd.refine_ms_per_pair": "ms",
    "measures.lw.grid_ms_per_pair": "ms",
    "measures.lw.refine_ms_per_pair": "ms",
    "measures.cd.calls_per_pair": "count",
    "measures.cd.converged_frac": "fraction",
    "measures.cd.refine_gain_frac": "fraction",
    "measures.cd.refine_gap_max": "bit",
    "measures.cd.ref_dev_max": "bit",
    "measures.lw_half.ref_dev_max": "bit",
    "channels.apply_uniform.flops": "flop",
    "channels.apply_uniform.bytes": "B",
    "sampling.sample_ms_p50": "ms",
    "sampling.sample_ms_tail": "ms",
    "sampling.parallel_eff": "fraction",
    "oracles.max_dev": "1",
    "discrimination.accuracy": "fraction",
    "cli.files_written": "count",
    "cli.bytes_written": "B",
    "tracing.overhead_frac": "fraction",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def use_checkout_source() -> None:
    """Import cclab from ./src of the checkout, and nothing else."""
    if not (SRC / "cclab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cclab sources under {SRC}; run from a checkout root")
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import cclab
    if Path(cclab.__file__).resolve().parent != (SRC / "cclab").resolve():
        sys.exit(f"perfbench: imported cclab from {cclab.__file__}, not {SRC}")


def setup_child(name: str) -> None:
    """Time `import cclab` plus the workload's first call in this fresh
    process, then take the machine probe here, outside that timing."""
    t0 = perf_counter()
    use_checkout_source()
    import workloads
    SCRATCH.mkdir(exist_ok=True)
    workloads.WORKLOADS[name](str(SCRATCH)).warmup()
    seconds = perf_counter() - t0
    print(seconds, workloads.machine_probe())


def measure_setup(name: str) -> tuple[float, float]:
    """Median set-up time over SETUP_REPEATS fresh processes: unscaled, and
    scaled like samples_per_s by the probe each process takes right after
    its set-up (a probe taken in this parent tracked the starts poorly)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-child", "--workload", name],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
        seconds, probe = map(float, proc.stdout.strip().splitlines()[-1].split())
        raw.append(seconds)
        scaled.append(seconds * PROBE_REF_S / probe)
    return statistics.median(raw), statistics.median(scaled)


def more_rounds(wl, r, busy, seconds) -> bool:
    """Whole cycles of the workload's cells, at least one and at least
    MIN_ROUNDS rounds, while one more cycle of the mean length so far still
    ends within `seconds` of round time."""
    if r % wl.cycle or r < max(MIN_ROUNDS, wl.cycle):
        return True
    return busy + busy * wl.cycle / r <= seconds


def run_pass(wl, seed, checker, *, seconds=None, rounds=None):
    """Closed loop of rounds: a fixed count, or whole cycles for `seconds`
    of round time (more_rounds). Returns per-round (units, seconds, probe
    seconds), the probe being the mean of machine_probe() just before and
    just after the round, outside its timing. A round whose call or whose
    check raises counts as a failed check, and the loop goes on."""
    from workloads import machine_probe
    done = []
    busy = 0.0
    r = 0
    before = machine_probe()
    while (r < rounds) if rounds is not None else more_rounds(wl, r, busy, seconds):
        t0 = perf_counter()
        try:
            units, out = wl.run_round(seed, r)
        except Exception:  # an operation failed: count it, keep measuring
            traceback.print_exc()
            checker.check(False, f"{wl.name} round {r} raised")
            busy += perf_counter() - t0
            r += 1
            continue
        dt = perf_counter() - t0
        busy += dt
        after = machine_probe()
        done.append((units, dt, (before + after) / 2))
        before = after
        try:
            wl.check_round(out, checker)
        except Exception:  # malformed outputs: a failure, not a crash
            traceback.print_exc()
            checker.check(False, f"{wl.name} round {r} check raised")
        r += 1
    return done


def throughput(done, scaled: bool = False) -> float:
    """Units per second over all rounds. `scaled` counts each round's time
    at the probe's reference speed, dt * PROBE_REF_S / probe, so that how
    fast the machine ran at that moment cancels."""
    units = sum(u for u, _, _ in done)
    seconds = sum(dt * (PROBE_REF_S / probe if scaled else 1.0) for _, dt, probe in done)
    return units / seconds if seconds else 0.0


def check_references(wl, checker) -> None:
    try:
        computed = wl.reference()
    except Exception:  # a failure of the build, not of the benchmark
        traceback.print_exc()
        checker.check(False, f"{wl.name} reference cells raised")
        return
    wl.check_reference(load_references().get(wl.name, {}), computed, checker)


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def end_to_end(wl, args, checker) -> dict:
    setup_raw, setup_s = measure_setup(wl.name)
    wl.warmup()
    done = run_pass(wl, args.seed, checker, seconds=args.seconds)
    check_references(wl, checker)
    print(f"unscaled: samples_per_s = {throughput(done):.6g} 1/s, "
          f"setup_s = {setup_raw:.6g} s")
    return {
        "samples_per_s": throughput(done, scaled=True),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl, args, checker) -> tuple[dict, dict, dict]:
    """Untraced, single-thread (when the workload uses more) and traced
    passes over the same rounds; returns (metrics, module shares, notes).
    Throughputs here are scaled like samples_per_s."""
    import tracing

    wl.warmup()
    rounds = wl.trace_rounds
    untraced = run_pass(wl, args.seed, checker, rounds=rounds)
    sps = throughput(untraced, scaled=True)
    if wl.threads > 1:
        threads, wl.threads = wl.threads, 1
        single = throughput(run_pass(wl, args.seed, checker, rounds=rounds), scaled=True)
        wl.threads = threads
    else:
        single = sps
    nproc = os.cpu_count() or 1

    tracer = tracing.Tracer()
    before = dict(checker.stats)
    plain_span, wl.span = wl.span, tracer.span
    tracer.install()
    try:
        traced = run_pass(wl, args.seed, checker, rounds=rounds)
    finally:
        tracer.uninstall()
        wl.span = plain_span
    # output counts of the traced pass alone, so they repeat exactly
    written = {k: checker.stats.get(k, 0) - before.get(k, 0)
               for k in ("cli.files_written", "cli.bytes_written")}
    check_references(wl, checker)

    metrics, shares = tracer.layer_metrics()
    metrics.update({name: 0.0 for name in DERIVED})
    metrics.update(tracer.derived_metrics())
    latencies = tracer.sample_latencies_ms()
    tail, pct, beyond = tracing.tail_percentile(latencies)
    stats = checker.stats
    metrics.update({
        "measures.cd.ref_dev_max": stats.get("measures.cd.ref_dev_max", 0.0),
        "measures.lw_half.ref_dev_max": stats.get("measures.lw_half.ref_dev_max", 0.0),
        "sampling.sample_ms_p50": statistics.median(latencies) if latencies else 0.0,
        "sampling.sample_ms_tail": tail,
        "sampling.parallel_eff": sps / (nproc * single) if single else 0.0,
        "oracles.max_dev": stats.get("oracles.max_dev", 0.0),
        "discrimination.accuracy": (stats["discrimination.hits"] / stats["discrimination.probes"]
                                    if stats.get("discrimination.probes") else 0.0),
        **written,
        "tracing.overhead_frac": sps / throughput(traced, scaled=True) - 1.0,
    })
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans_{wl.name}_seed{args.seed}.csv"
    tracing.write_spans(tracer.spans, spans_path)
    notes = {"sample_tail_percentile": pct, "samples_beyond_tail": beyond,
             "samples": len(latencies), "rounds_per_pass": rounds,
             "samples_per_s_untraced": sps, "samples_per_s_threads1": single,
             "samples_per_s_traced": throughput(traced, scaled=True),
             "untraced_functions_missing": tracer.missing, "spans": str(spans_path)}
    return metrics, shares, notes


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in DERIVED:
        return DERIVED[name]
    return "count" if name.endswith(".calls") else "s"


def run_facts(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(), "src_sha256": src_digest(),
    }


def git_commit() -> str:
    """HEAD of the checkout's git directory, or "none" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cclab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def selftest() -> int:
    """The reference check passes on the frozen values and fails once one
    frozen value is moved by PERTURBATION."""
    import workloads
    frozen_all = load_references()
    ok = True
    for name in ("discord_table", "monogamy_scatter"):
        wl = workloads.WORKLOADS[name](str(SCRATCH))
        computed = wl.reference()
        clean, perturbed = workloads.Checker(), workloads.Checker()
        frozen = frozen_all[name]
        wl.check_reference(frozen, computed, clean)
        key = sorted(frozen)[0]
        moved = dict(frozen, **{key: [frozen[key][0] + PERTURBATION] + frozen[key][1:]})
        wl.check_reference(moved, computed, perturbed)
        passed = clean.failed == 0 and perturbed.failed > 0
        ok = ok and passed
        print(f"{name}: clean fail_frac {clean.failed}/{clean.attempted}, "
              f"{key}[0] moved by {PERTURBATION:g}: fail_frac "
              f"{perturbed.failed}/{perturbed.attempted} -> {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child:
        setup_child(args.workload)
        return 0
    use_checkout_source()
    import workloads
    SCRATCH.mkdir(exist_ok=True)
    try:
        if args.selftest:
            return selftest()
        if args.workload not in workloads.WORKLOADS:
            sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload](str(SCRATCH))
        checker = workloads.Checker()
        if args.trace:
            metrics, shares, notes = per_layer(wl, args, checker)
        else:
            metrics, shares, notes = end_to_end(wl, args, checker), None, None
    finally:
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    fail_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"fail_frac = {fail_frac:.6g} fraction "
          f"({checker.failed} of {checker.attempted} checked outputs failed)")
    for failure in checker.failures:
        print(f"FAILED: {failure}")
    if shares is not None:
        print(json.dumps({"module_self_share": shares, "notes": notes}))
    print(json.dumps({"run_facts": run_facts(args)}))
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
