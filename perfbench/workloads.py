"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop driven by one caller: `run_round(seed, r)`
returns only when its whole batch is done, and the inputs of round r depend
only on (seed, r). A unit is one (state, channel, p) evaluation with all of
the workload's measures. `check_round` checks every output of a round against
seed-independent invariants. `reference` recomputes a small fixed set of
cells whose inputs come from DEFAULT_SEED, to be compared with the values
frozen in references.json.

cclab functions are always called through their module (`sampling.sample_state`,
never a name bound at import), so the tracer's rebinding reaches them.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import tempfile
from contextlib import nullcontext
from time import perf_counter

import numpy as np

from cclab import channels, cli, discrimination, measures, oracles, sampling, states

DEFAULT_SEED = 0
NPROC = os.cpu_count() or 1
INVARIANT_TOL = 1e-9
REF_TOL = 1e-5  # optimizer-valued references (ROADMAP item 4)
EXACT_REF_TOL = 1e-9  # references with no optimizer in them
ORACLE_TOL = 1e-10


def round_seed(seed: int, r: int) -> int:
    return seed * 100_003 + r


_PROBE_SMALL = np.arange(16).reshape(4, 4) * (1 + 0.5j)
_PROBE_SMALL = (_PROBE_SMALL + _PROBE_SMALL.conj().T) / 64
_PROBE_LARGE = np.kron(np.kron(_PROBE_SMALL, _PROBE_SMALL), _PROBE_SMALL[:2, :2] + np.eye(2))
PROBE_REPS = 200
PROBE_REPEATS = 3


def machine_probe() -> float:
    """Median seconds, over PROBE_REPEATS timings, of a fixed kernel of the
    same kind of work as cclab (interpreter calls on small complex arrays:
    eigvalsh, einsum, kron, transposed copies, a 32x32 product) that no cclab
    change can alter. Its time tracks how fast this machine runs such work at
    the moment."""
    a, b = _PROBE_SMALL, _PROBE_LARGE
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        for _ in range(PROBE_REPS):
            np.linalg.eigvalsh(a)
            np.einsum("ab,bc->ac", a, a)
            np.kron(a, a).reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).copy()
            b @ b
        times.append(perf_counter() - t0)
    return float(np.median(times))


class Checker:
    """Counts checked outputs and failures, and keeps the largest deviations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stats: dict = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def close(self, got, want, tol: float, what: str, dev_key: str | None = None) -> None:
        dev = abs(got - want)
        if dev_key is not None:
            self.record_max(dev_key, dev)
        self.check(bool(dev <= tol), f"{what}: got {got!r}, want {want!r} (tol {tol:g})")

    def record_max(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats.get(key, 0.0), float(value))

    def add(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0) + value


class Workload:
    name = ""
    trace_rounds = 1  # fixed round count of a traced run, so call counts repeat
    cycle = 1  # rounds per complete pass over the cells; a timed pass runs whole passes
    threads = 1
    ref_tol = REF_TOL
    ref_dev_keys: dict = {}  # reference key -> Checker stat holding its max deviation

    def __init__(self, scratch: str, span=None):
        self.scratch = scratch
        self.span = span or (lambda name: nullcontext())

    def warmup(self) -> None:
        raise NotImplementedError

    def run_round(self, seed: int, r: int):
        raise NotImplementedError

    def check_round(self, out, checker: Checker) -> None:
        raise NotImplementedError

    def reference(self) -> dict:
        return {}

    def check_reference(self, frozen: dict, computed: dict, checker: Checker) -> None:
        checker.check(set(frozen) == set(computed),
                      f"{self.name}: reference keys {sorted(computed)} != {sorted(frozen)}")
        for key, want in frozen.items():
            got = computed.get(key, [])
            checker.check(len(got) == len(want), f"{self.name} ref {key}: length")
            for i, (g, w) in enumerate(zip(got, want)):
                checker.close(g, w, self.ref_tol, f"{self.name} ref {key}[{i}]",
                              self.ref_dev_keys.get(key))


class DiscordTable(Workload):
    name = "discord_table"
    CELLS = tuple((n, kind, p) for n in (3, 5) for kind in ("pdc", "dpc", "adc")
                  for p in (0.2, 0.6))
    # mi rides along so that 0 <= cd <= mi and qd + cd = mi can be checked
    MEASURES = ("cd", "qd", "lw_half", "mi")
    # samples per cell and round: three per thread, so every worker of the
    # pool has work and a call's fixed costs are shared by several samples
    COUNT = 3 * NPROC
    cycle = len(CELLS)
    trace_rounds = len(CELLS)
    threads = NPROC
    ref_dev_keys = {"cd": "measures.cd.ref_dev_max", "lw_half": "measures.lw_half.ref_dev_max"}

    def _cell(self, n, kind, p, count, master_seed):
        cfg = sampling.SamplerConfig(n_qubits=n, count=count, master_seed=master_seed)
        return sampling.evaluate_ensemble(cfg, kind, p, list(self.MEASURES),
                                          threads=self.threads)

    def warmup(self):
        self._cell(3, "pdc", 0.2, 1, DEFAULT_SEED)

    def run_round(self, seed, r):
        cell = self.CELLS[r % self.cycle]
        values = self._cell(*cell, self.COUNT, round_seed(seed, r // self.cycle))
        return self.COUNT, [(cell, values)]

    def check_round(self, out, checker):
        for (n, kind, p), values in out:
            for cd, qd, lw_half, mi in values:
                tag = f"N{n} {kind} p{p}"
                checker.check(-INVARIANT_TOL <= cd <= mi + INVARIANT_TOL,
                              f"{tag}: 0 <= cd <= mi fails (cd {cd}, mi {mi})")
                checker.check(abs(qd + cd - mi) <= INVARIANT_TOL,
                              f"{tag}: qd + cd != mi ({qd} + {cd} vs {mi})")
                checker.check(-INVARIANT_TOL <= lw_half <= n - 1 + INVARIANT_TOL,
                              f"{tag}: lw_half {lw_half} outside [0, {n - 1}]")

    def reference(self):
        rows = [self._cell(*cell, 1, DEFAULT_SEED)[0] for cell in self.CELLS]
        return {m: [float(row[j]) for row in rows]
                for j, m in enumerate(self.MEASURES) if m != "mi"}


class CorrelatorSweep(Workload):
    name = "correlator_sweep"
    N = 5
    # eof is left out: with it, channels + pauli_expectation fell to about
    # half of the traced self time; Koashi-Winter in monogamy_scatter runs it
    MEASURES = ("dcmax", "genuine_cmax", "mi", "ln")
    CHANNELS = ("pdc", "dpc", "adc")
    P_GRID = (0.2, 0.4, 0.6)
    COUNT = 24
    BINS = 20
    UPPER = {"dcmax": N - 1, "genuine_cmax": 1, "mi": 2 * (N - 1), "ln": N - 1}
    trace_rounds = 12
    ref_tol = EXACT_REF_TOL

    def _run(self, count, master_seed):
        outdir = tempfile.mkdtemp(prefix="sweep_", dir=self.scratch)
        cfg = cli.config_from_dict({
            "experiment": "bench", "channels": list(self.CHANNELS),
            "p_grid": list(self.P_GRID), "measures": list(self.MEASURES),
            "sampler": {"n_qubits": self.N, "count": count, "master_seed": master_seed},
            "bins": self.BINS, "output_dir": outdir, "threads": 1})
        return outdir, cli.run_experiment(cfg), count

    def warmup(self):
        outdir, _, _ = self._run(1, DEFAULT_SEED)
        shutil.rmtree(outdir)

    def run_round(self, seed, r):
        out = self._run(self.COUNT, round_seed(seed, r))
        return self.COUNT * len(self.CHANNELS) * len(self.P_GRID), out

    def _stats(self, outdir, measure, kind):
        with open(os.path.join(outdir, f"bench_{measure}_{kind}.csv"), newline="") as fh:
            return list(csv.DictReader(fh))

    def check_round(self, out, checker):
        outdir, manifest, count = out
        try:
            self._check_outputs(outdir, manifest, count, checker)
        finally:
            shutil.rmtree(outdir)

    def _check_outputs(self, outdir, manifest, count, checker):
        expected = len(self.MEASURES) * len(self.CHANNELS) * (1 + len(self.P_GRID))
        manifest_path = os.path.join(outdir, "bench_manifest.json")
        checker.check(len(manifest.outputs) == expected,
                      f"sweep wrote {len(manifest.outputs)} outputs, expected {expected}")
        with open(manifest_path) as fh:
            listed = json.load(fh)["outputs"]
        checker.check(listed == manifest.outputs, "manifest file lists other outputs")
        written = manifest.outputs + [manifest_path]
        checker.add("cli.files_written", len(written))
        checker.add("cli.bytes_written", sum(os.path.getsize(f) for f in written))
        for measure in self.MEASURES:
            hi = self.UPPER[measure] + INVARIANT_TOL
            for kind in self.CHANNELS:
                rows = self._stats(outdir, measure, kind)
                checker.check([float(r["p"]) for r in rows] == list(self.P_GRID),
                              f"{measure} {kind}: p column {[r['p'] for r in rows]}")
                for row in rows:
                    tag = f"{measure} {kind} p{row['p']}"
                    checker.check(int(row["count"]) == count, f"{tag}: count {row['count']}")
                    checker.check(-INVARIANT_TOL <= float(row["mean"]) <= hi
                                  and -INVARIANT_TOL <= float(row["median"]) <= hi
                                  and float(row["std"]) >= 0.0,
                                  f"{tag}: mean/median/std out of range {row}")
                    hist = os.path.join(outdir, f"bench_{measure}_{kind}_hist_p"
                                                f"{float(row['p']):g}.csv")
                    with open(hist, newline="") as fh:
                        freqs = [float(h["frequency"]) for h in csv.DictReader(fh)]
                    checker.check(len(freqs) == self.BINS and abs(sum(freqs) - 1) <= 1e-9,
                                  f"{tag}: histogram frequencies sum to {sum(freqs)}")

    def reference(self):
        outdir, _, _ = self._run(4, DEFAULT_SEED)
        try:
            return {f"{m}_{k}_mean": [float(r["mean"]) for r in self._stats(outdir, m, k)]
                    for m in self.MEASURES for k in self.CHANNELS}
        finally:
            shutil.rmtree(outdir)


class MonogamyScatter(Workload):
    name = "monogamy_scatter"
    GROUPS = ((4, "adc"), (4, "pdc"), (5, "adc"), (5, "pdc"))
    P_VALUES = (0.2, 0.4, 0.6)
    STATES = 24
    KW_GRID = (24, 12)
    BINS = 8
    trace_rounds = 20
    ref_dev_keys = {"cd": "measures.cd.ref_dev_max"}

    def _group(self, n, kind, count, master_seed):
        cfg = sampling.SamplerConfig(n_qubits=n, count=count, master_seed=master_seed)
        units = []
        for i in range(count):
            with self.span("bench.unit"):
                ch = channels.make_channel(kind, self.P_VALUES[i % len(self.P_VALUES)])
                rho = channels.apply_uniform(
                    states.pure_to_density(sampling.sample_state(cfg, i)), ch)
                kw = measures.koashi_winter_check(rho, refine=False, grid=self.KW_GRID)
                pairs = []
                for j in range(2, n + 1):
                    pair = states.partial_trace(rho, (1, j))
                    pairs.append((measures.mutual_information(pair),
                                  measures.classical_discord_detailed(
                                      pair, "second", refine=False).value))
            units.append((kw, pairs))
        return units

    def warmup(self):
        self._group(4, "adc", 1, DEFAULT_SEED)

    def run_round(self, seed, r):
        out = []
        for n, kind in self.GROUPS:
            units = self._group(n, kind, self.STATES, round_seed(seed, r))
            mi, cd = zip(*(pair for _, pairs in units for pair in pairs))
            out.append(((n, kind), units, sampling.fit_bounds(mi, cd, self.BINS)))
        return len(self.GROUPS) * self.STATES, out

    def check_round(self, out, checker):
        for (n, kind), units, fit in out:
            for kw, pairs in units:
                checker.check(bool(kw["holds"]),
                              f"N{n} {kind}: Koashi-Winter fails {kw}")
                for mi, cd in pairs:
                    checker.check(-INVARIANT_TOL <= cd <= mi + INVARIANT_TOL,
                                  f"N{n} {kind}: 0 <= cd <= mi fails (cd {cd}, mi {mi})")
            checker.check(bool(np.all(np.isfinite([fit.m_u, fit.c_u, fit.m_l, fit.c_l]))),
                          f"N{n} {kind}: bound fit not finite {fit}")

    def reference(self):
        mi, cd = [], []
        for n, kind in self.GROUPS:
            for _, pairs in self._group(n, kind, 3, DEFAULT_SEED):
                mi += [float(v) for v, _ in pairs]
                cd += [float(v) for _, v in pairs]
        return {"mi": mi, "cd": cd}


class OracleProbe(Workload):
    name = "oracle_probe"
    N_VALUES = (2, 3, 4, 5)
    STATES = 2
    P_VALUES = tuple(round(0.1 * i, 10) for i in range(11))
    PROBE_P = tuple(float(p) for p in np.linspace(0.05, 0.5, 11))
    PROBES = 4  # per channel, alternating noiseless and SIGMA
    SIGMA = 0.01
    trace_rounds = 20

    def warmup(self):
        oracles.oracle_equivalence_sweep(n_values=(2,), p_values=[0.1], states_per_cell=1)
        probe = discrimination.gw_probe_state(0.9, 0.7)
        discrimination.classify(discrimination.generate_probe_trace(
            probe, channels.make_channel("adc", 0.1), self.PROBE_P))

    def run_round(self, seed, r):
        rows = oracles.oracle_equivalence_sweep(
            n_values=self.N_VALUES, p_values=list(self.P_VALUES),
            states_per_cell=self.STATES, seed=round_seed(seed, r),
            include_mixed_pauli_dpc=True)
        rng = np.random.default_rng([seed, r])
        verdicts = []
        for kind in ("pdc", "dpc", "adc"):
            for j in range(self.PROBES):
                a, b = rng.uniform(0, 1, 2)
                g1, g2 = rng.uniform(0, 2 * np.pi, 2)
                sigma = self.SIGMA if j % 2 else 0.0
                trace = discrimination.generate_probe_trace(
                    discrimination.gw_probe_state(a, b, g1, g2),
                    channels.make_channel(kind, 0.1), self.PROBE_P,
                    noise_sigma=sigma, rng=rng)
                verdicts.append((kind, sigma, discrimination.classify(trace).label))
        # per (N, p): every Haar state through each channel, plus one gW and one gGHZ
        units = (len(self.N_VALUES) * len(self.P_VALUES) * (3 * self.STATES + 2)
                 + len(verdicts) * len(self.PROBE_P))
        return units, (rows, verdicts)

    def check_round(self, out, checker):
        rows, verdicts = out
        for row in rows:
            checker.record_max("oracles.max_dev", row["max_dev"])
            checker.check(row["max_dev"] <= ORACLE_TOL, f"oracle cell {row}")
        for kind, sigma, label in verdicts:
            checker.add("discrimination.probes", 1)
            checker.add("discrimination.hits", label == kind)
            checker.check(label == kind, f"{kind} probe (sigma {sigma}) classified {label}")


WORKLOADS = {w.name: w for w in (DiscordTable, CorrelatorSweep, MonogamyScatter, OracleProbe)}
