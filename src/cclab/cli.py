"""Command-line entry point: sweeps, oracle checks, single-measure
evaluation, channel discrimination, bound fitting and bundled reproduction
recipes. Outputs are CSV/JSON with 12-significant-digit floats and depend only
on the config content and seed."""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import discrimination, oracles
from .channels import KINDS, make_channel
from .correlators import correlator, genuine_max, parse_index
from .measures import MEASURED_SIDE, MEASURES, check_measures, evaluate_block
from .sampling import (SamplerConfig, decay_rate, ensemble_sweep,
                       evaluate_ensemble, fit_bounds)
from .states import fano, load_state

VERSION = "0.1.0"
OUTPUT_ENV = "CCLAB_OUTPUT_DIR"
# run settings that do not change the results, kept out of the config hash
_RUN_KEYS = ("output_dir", "threads")


def fmt(x) -> str:
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    sampler: SamplerConfig
    channels: tuple
    p_grid: tuple
    measures: tuple
    nodal: int = 1
    direction: str = "left"
    bins: int = 50
    output_dir: str = "."
    threads: int = 1

    def __post_init__(self):
        if not (self.measures and self.channels and self.p_grid):
            raise ValueError("measures, channels and p_grid must not be empty")
        for ch in self.channels:
            if ch not in KINDS and ch != "none":
                raise ValueError(f"unknown channel {ch!r}")
        check_measures(self.measures)
        for p in self.p_grid:
            if not 0 <= p <= 1:
                raise ValueError(f"p={p} outside [0, 1]")
        if self.direction not in MEASURED_SIDE:
            raise ValueError(f"direction {self.direction!r} is not one of {tuple(MEASURED_SIDE)}")
        if not 1 <= self.nodal <= self.sampler.n_qubits:
            raise ValueError(f"nodal qubit {self.nodal} outside [1, {self.sampler.n_qubits}]")
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        # one file per (channel, measure) and one histogram per p label
        for what, items in (("channels", self.channels), ("measures", self.measures),
                            ("p_grid labels", [f"{p:g}" for p in self.p_grid])):
            if len(set(items)) < len(items):
                raise ValueError(f"{what} must be distinct, got {list(items)}")

    def canonical(self) -> str:
        obj = asdict(self)
        for key in _RUN_KEYS:
            del obj[key]
        return json.dumps(obj, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        obj = json.load(fh)
    return config_from_dict(obj)


def _check_keys(obj: dict, cls, what: str) -> None:
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


_JSON_TYPES = {int: "integer", bool: "boolean", str: "string", list: "array", dict: "object"}


def _get(obj: dict, key: str, default, kind):
    """obj[key] (or default), which must be of JSON type `kind`: no silent
    casts, and a boolean is not an integer."""
    value = obj.get(key, default)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{key} must be a JSON {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ValueError(f"config must be a JSON object, got {json.dumps(obj)}")
    _check_keys(obj, ExperimentConfig, "config")
    sam = _get(obj, "sampler", {}, dict)
    _check_keys(sam, SamplerConfig, "sampler")
    sampler = SamplerConfig(
        n_qubits=_get(sam, "n_qubits", 3, int),
        ensemble=_get(sam, "ensemble", "haar", str),
        count=_get(sam, "count", 1000, int),
        master_seed=_get(sam, "master_seed", 0, int),
        wclass_real_amplitudes=_get(sam, "wclass_real_amplitudes", False, bool))
    p_grid = _get(obj, "p_grid", [0.0], list)
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in p_grid):
        raise ValueError(f"p_grid must be a JSON array of numbers, got {json.dumps(p_grid)}")
    return ExperimentConfig(
        experiment=_get(obj, "experiment", "sweep", str),
        sampler=sampler,
        channels=tuple(_get(obj, "channels", ["pdc"], list)),
        p_grid=tuple(float(p) for p in p_grid),
        measures=tuple(_get(obj, "measures", [], list)),
        nodal=_get(obj, "nodal", 1, int),
        direction=_get(obj, "direction", "left", str),
        bins=_get(obj, "bins", 50, int),
        output_dir=_get(obj, "output_dir", os.environ.get(OUTPUT_ENV, "."), str),
        threads=_get(obj, "threads", 1, int))


@dataclass
class RunManifest:
    config_hash: str
    version: str
    started: float
    finished: float = 0.0
    outputs: list = field(default_factory=list)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"config_hash": self.config_hash, "version": self.version,
                       "started": self.started, "finished": self.finished,
                       "outputs": self.outputs}, fh, indent=2)
            fh.write("\n")


def _write_csv(path: str, header, rows) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, str) else fmt(c) for c in row])
    os.replace(tmp, path)


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    os.makedirs(cfg.output_dir, exist_ok=True)
    manifest = RunManifest(cfg.config_hash(), VERSION, time.time())
    try:
        summaries = ensemble_sweep(cfg.sampler, cfg.channels, cfg.p_grid, cfg.measures,
                                   cfg.nodal, cfg.direction, cfg.bins, cfg.threads)
        groups = {}
        for s in summaries:
            groups.setdefault((s.channel, s.measure), []).append(s)
        for (channel, measure), ms in groups.items():
            path = os.path.join(cfg.output_dir, f"{cfg.experiment}_{measure}_{channel}.csv")
            _write_csv(path, ["p", "mean", "std", "median", "skewness",
                              "moment_skewness", "count"],
                       [(s.p, s.mean, s.std_dev, s.median, s.skewness,
                         s.moment_skewness, s.n) for s in ms])
            manifest.outputs.append(path)
            for s in ms:
                hpath = os.path.join(
                    cfg.output_dir, f"{cfg.experiment}_{measure}_{channel}_hist_p{s.p:g}.csv")
                _write_csv(hpath, ["bin_left", "bin_right", "frequency"],
                           zip(s.bin_edges[:-1], s.bin_edges[1:], s.frequencies))
                manifest.outputs.append(hpath)
    except Exception:
        for path in manifest.outputs:
            if os.path.exists(path):
                os.remove(path)
        raise
    manifest.finished = time.time()
    manifest.write(os.path.join(cfg.output_dir, f"{cfg.experiment}_manifest.json"))
    return manifest


# ---------------------------------------------------------------------------
# Recipes

def recipe_fig1_wstate(outdir: str, points: int = 21) -> str:
    """Z correlators of the 3-qubit W state vs noise strength, from the closed
    forms: the pdc and dpc columns are the all-z |<ZZZ>| (1 and |1 - 4p/3|^3),
    the adc column is gw_adc_z_correlator(w, 3, p) = (1 + 2p)/3, which is the
    one-site |<Z_1>| of that state (its |<ZZZ>| is |1 - 2p|)."""
    w_amps = np.full(3, 1 / np.sqrt(3))
    rows = []
    for p in np.linspace(0.0, 1.0, points):
        rows.append((p, 1.0,
                     oracles.gw_adc_z_correlator(w_amps, 3, p),
                     abs(oracles.dpc_genuine_multiplier(3, p))))
    path = os.path.join(outdir, "fig1_wstate.csv")
    _write_csv(path, ["p", "pdc", "adc", "dpc"], rows)
    return path


def recipe_table(channel: str, measure: str, outdir: str, count: int,
                 seed: int, threads: int) -> RunManifest:
    """Table-style statistics for N in {3, 4, 5} and p in {0.2, 0.4, 0.6}."""
    rows = []
    for n in (3, 4, 5):
        cfg = SamplerConfig(n_qubits=n, count=count, master_seed=seed)
        for s in ensemble_sweep(cfg, [channel], (0.2, 0.4, 0.6), [measure], threads=threads):
            rows.append((str(n), s.p, s.mean, s.std_dev, s.median, s.skewness,
                         s.moment_skewness))
    path = os.path.join(outdir, f"table_{measure}_{channel}.csv")
    _write_csv(path, ["N", "p", "mean", "std", "median", "skewness",
                      "moment_skewness"], rows)
    manifest = RunManifest(hashlib.sha256(
        f"table:{channel}:{measure}:{count}:{seed}".encode()).hexdigest()[:16],
        VERSION, time.time(), time.time(), [path])
    manifest.write(os.path.join(outdir, f"table_{measure}_{channel}_manifest.json"))
    return manifest


def recipe_ghzw_decay(channel: str, outdir: str, count: int, seed: int,
                      threads: int) -> str:
    """Average decay rate of D^Cmax for GHZ-class (Haar 3-qubit) vs W-class
    ensembles over p in {0.2, 0.4, 0.6}."""
    rows = []
    for label, ens in (("ghz_class", "haar"), ("w_class", "w_class")):
        cfg = SamplerConfig(n_qubits=3, ensemble=ens, count=count, master_seed=seed)
        sweep = ensemble_sweep(cfg, [channel], (0.2, 0.4, 0.6), ["dcmax"], threads=threads)
        rows.append((label, decay_rate([(s.p, s.mean) for s in sweep])))
    path = os.path.join(outdir, f"decay_rate_{channel}.csv")
    _write_csv(path, ["ensemble", "decay_rate"], rows)
    return path


def recipe_bound_fit(channel: str, outdir: str, count: int, seed: int,
                     threads: int, n_qubits: int = 3, p: float = 0.2,
                     bin_count: int = 16) -> str:
    """Fit the D^CD bound lines against D^I for one (channel, N, p) cell."""
    cfg = SamplerConfig(n_qubits=n_qubits, count=count, master_seed=seed)
    vals = evaluate_ensemble(cfg, channel, p, ["mi", "cd"], threads=threads)
    bf = fit_bounds(vals[:, 0], vals[:, 1], bin_count)
    path = os.path.join(outdir, f"bounds_{channel}_N{n_qubits}_p{p:g}.csv")
    _write_csv(path, ["m_u", "c_u", "m_l", "c_l", "bins", "residual"],
               [(bf.m_u, bf.c_u, bf.m_l, bf.c_l, bf.bin_count, bf.residual)])
    return path


RECIPES = {
    "fig1_wstate": None,  # handled specially below
    "table1_pdc": ("pdc", "dcmax"), "table1_dpc": ("dpc", "dcmax"),
    "table1_adc": ("adc", "dcmax"),
    # table2 ships the lw_half variant, the one that tracks the published
    # per-pair values; plain "lw" (two-sided) remains available via sweep
    "table2_pdc": ("pdc", "lw_half"), "table2_dpc": ("dpc", "lw_half"),
    "table2_adc": ("adc", "lw_half"),
    "table3_pdc": ("pdc", "cd"), "table3_dpc": ("dpc", "cd"),
    "table3_adc": ("adc", "cd"),
    "ghzw_decay_pdc": ("pdc", None), "ghzw_decay_dpc": ("dpc", None),
    "ghzw_decay_adc": ("adc", None),
    "table4_pdc": ("pdc", "bounds"), "table4_adc": ("adc", "bounds"),
    "table4_dpc": ("dpc", "bounds"),
}


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, sampler=replace(cfg.sampler, master_seed=args.seed))
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    manifest = run_experiment(cfg)
    print(f"wrote {len(manifest.outputs)} files (config {manifest.config_hash})")
    return 0


def _cmd_oracle(args) -> int:
    ch = args.channel
    if ch == "pdc":
        value = oracles.pdc_multiplier(args.N, args.k, args.p, args.plane)
    elif ch == "dpc":
        value = oracles.dpc_genuine_multiplier(args.N, args.p)
    else:
        value = oracles.adc_xy_multiplier(args.k, args.p)
    if not 1 <= args.k <= args.N:  # each law checked its own arguments; k also needs N
        raise ValueError(f"need 1 <= k <= N, got k={args.k}, N={args.N}")
    print(fmt(value))
    return 0


def _cmd_oracle_check(args) -> int:
    rows = oracles.oracle_equivalence_sweep(
        states_per_cell=args.states, seed=args.seed,
        include_mixed_pauli_dpc=True)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "oracle_check.csv")
    _write_csv(path, ["check", "N", "k", "p", "max_dev"],
               [(r["check"], str(r["N"]), str(r["k"]), r["p"], r["max_dev"])
                for r in rows])
    worst = max(r["max_dev"] for r in rows)
    print(f"{len(rows)} cells, worst deviation {worst:.3e}, wrote {path}")
    return 0 if worst <= 1e-10 else 1


def _cmd_measure(args) -> int:
    rho = load_state(args.state)
    if not 1 <= args.nodal <= rho.n_qubits:
        raise ValueError(f"nodal qubit {args.nodal} outside [1, {rho.n_qubits}]")
    values, searches = evaluate_block(fano(rho.matrix[None]), [args.kind], args.nodal, args.direction)
    out = {"value": float(values[0, 0]), "kind": args.kind}
    if searches:  # a search-backed kind: did every pair's search converge
        out["converged"] = all(bool(s.converged.all()) for s in searches.values())
    if "cd" in searches:  # the measured qubit's basis, per (nodal, i) pair
        out["theta"], out["phi"] = searches["cd"].theta.tolist(), searches["cd"].phi.tolist()
    print(json.dumps(out))
    return 0


def _cmd_correlators(args) -> int:
    rho = load_state(args.state)
    if args.index:
        labels = parse_index(args.index)
        print(fmt(correlator(rho, labels)))
    else:
        mode = "full_search" if args.mode == "full" else "same_pauli"
        v, labels = genuine_max(rho, mode)
        print(json.dumps({"value": v, "argmax": "".join(labels).lower()}))
    return 0


def _cmd_discriminate(args) -> int:
    if args.trace is not None:
        with open(args.trace, newline="") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames or [], list(reader)
        cols = ("p", "c_before", "c_after")
        if not set(cols) <= set(header):
            raise ValueError(f"{args.trace}: header {header} lacks one of {cols}")
        for i, row in enumerate(rows, start=1):
            if None in row.values():
                raise ValueError(f"{args.trace}: data row {i} has fewer columns than the header")
        trace = discrimination.ProbeTrace(
            args.N, tuple(tuple(float(row[c]) for c in cols) for row in rows))
    else:
        probe = discrimination.gw_probe_state(args.alpha, args.beta,
                                              args.gamma1, args.gamma2)
        if args.N != probe.n_qubits:
            raise ValueError(f"--N {args.N} differs from the {probe.n_qubits}-qubit gW probe")
        p_values = [float(x) for x in args.p.split(",")]
        trace = discrimination.generate_probe_trace(
            probe, make_channel(args.channel, p_values[0]), p_values,
            noise_sigma=args.sigma,
            rng=np.random.default_rng(args.seed))
    verdict = discrimination.classify(trace, threshold=args.threshold)
    print(json.dumps({"label": verdict.label,
                      "residuals": {k: float(v) for k, v in verdict.residuals.items()}}))
    return 0


def _cmd_fit_bounds(args) -> int:
    with open(args.csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]  # after the header; an empty file has no points
    for i, row in enumerate(rows, start=1):
        if len(row) < 2:
            raise ValueError(f"{args.csv}: data row {i} has {len(row)} columns, expected x,y")
    bf = fit_bounds([float(r[0]) for r in rows], [float(r[1]) for r in rows], args.bins)
    print(json.dumps({"m_u": bf.m_u, "c_u": bf.c_u, "m_l": bf.m_l,
                      "c_l": bf.c_l, "residual": bf.residual}))
    return 0


def _cmd_recipe(args) -> int:
    name, outdir, seed, threads = args.name, args.out, args.seed, args.threads
    if name not in RECIPES:
        raise ValueError(f"unknown recipe {name!r}; available: {sorted(RECIPES)}")
    if threads < 1:  # before the output directory is made
        raise ValueError(f"threads must be >= 1, got {threads}")
    # the sampler's checks of --count and --seed, also before it is made
    SamplerConfig(n_qubits=3, count=1 if args.count is None else args.count, master_seed=seed)
    os.makedirs(outdir, exist_ok=True)
    if name == "fig1_wstate":
        print(f"wrote {recipe_fig1_wstate(outdir)}")
        return 0
    channel, measure = RECIPES[name]
    count = args.count
    if count is None:
        count = {None: 2000, "dcmax": 10000}.get(measure, 1000)
    if measure is None:
        path = recipe_ghzw_decay(channel, outdir, count, seed, threads)
    elif measure == "bounds":
        path = recipe_bound_fit(channel, outdir, count, seed, threads)
    else:
        path = recipe_table(channel, measure, outdir, count, seed, threads).outputs[0]
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cclab",
                                 description="Noisy-channel classical-correlation laboratory")
    out_default = os.environ.get(OUTPUT_ENV, ".")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run an ensemble sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle", help="evaluate a closed-form correlator multiplier")
    p.add_argument("--channel", required=True, choices=KINDS)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--plane", choices=("xy", "z"), default="xy")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("oracle-check", help="numeric-vs-analytic equivalence sweep")
    p.add_argument("--states", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=out_default)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("measure", help="evaluate a correlation measure on a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--kind", required=True, choices=tuple(MEASURES))
    p.add_argument("--nodal", type=int, default=1)
    p.add_argument("--direction", choices=tuple(MEASURED_SIDE), default="left")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("correlators", help="evaluate correlators on a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--index", help='Pauli index string, e.g. "zzz" or "xy.z"')
    p.add_argument("--mode", choices=("same", "full"), default="same")
    p.set_defaults(func=_cmd_correlators)

    p = sub.add_parser("discriminate", help="classify an unknown local channel")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", help="CSV with columns p, c_before, c_after")
    source.add_argument("--channel", choices=KINDS, help="simulate a probe trace")
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--beta", type=float, default=0.7)
    p.add_argument("--gamma1", type=float, default=0.0)
    p.add_argument("--gamma2", type=float, default=0.0)
    p.add_argument("--p", default="0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--threshold", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_discriminate)

    p = sub.add_parser("fit-bounds", help="fit bound lines to a two-column CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--bins", type=int, default=20)
    p.set_defaults(func=_cmd_fit_bounds)

    p = sub.add_parser("recipe", help="run a bundled reproduction recipe")
    p.add_argument("name")
    p.add_argument("--out", default=out_default)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_recipe)
    return ap


def main(argv=None) -> int:
    """Run one subcommand. Bad input (a ValueError) or an unreadable file (an
    OSError) gives one "cclab: error: ..." line on stderr and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"cclab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
