"""Span tracing of cclab's public functions, installed from outside the package.

`Tracer.install` replaces each function named in LAYERS with a wrapper in
every loaded cclab module that holds a reference to it, so calls through
names another module imported (`measures.partial_trace`,
`sampling.apply_uniform`, ...) are traced too. A listed name that no longer
exists is skipped and its metrics are left out. Spans (name, start, end,
parent, thread) stay in memory until `write_spans` is called once at the end.

A wrapper called from a worker thread with no open span of its own takes the
innermost open span of the main thread as parent, which is the call that
started the pool (`sampling.evaluate_ensemble`).

The grid-versus-refinement split of the discord and local-work optimizers is
measured by re-running the wrapped call with `refine=False` inside a
`tracing.probe` span. Both are timed in CPU time of the calling thread, so
that waiting for the interpreter lock under a thread pool does not count as
optimizer work; span times are wall time. Calls made inside a probe are not
traced, and probe spans count as children of the caller (so they leave its
self time) but belong to no layer.
"""
from __future__ import annotations

import csv
import inspect
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, thread_time

import numpy as np

LAYERS = {
    "states": ("pure_to_density", "partial_trace", "partial_transpose",
               "von_neumann_entropy", "pauli_expectation"),
    "channels": ("make_channel", "apply_uniform"),
    "correlators": ("correlator", "genuine_max", "distributed_cmax"),
    "measures": ("classical_discord_detailed", "local_work", "mutual_information",
                 "log_negativity", "entanglement_of_formation",
                 "distributed_measure", "koashi_winter_check"),
    "sampling": ("sample_state", "evaluate_ensemble", "summarize", "fit_bounds"),
    "oracles": ("oracle_equivalence_sweep",),
    "discrimination": ("generate_probe_trace", "classify"),
    "cli": ("run_experiment",),
}

PACKAGE = "cclab"
PROBE = "tracing.probe"
SAMPLE_MARKER = "sampling.sample_state"
# Computed cost model of one Kraus operator on one site of an n-qubit register
# (4**n complex elements): two 2x2 contractions of 14 flops per element plus
# one accumulate of 2; each contraction copies its operand and writes its
# result (64 B per element), the accumulate reads two and writes one (48 B).
APPLY_FLOPS_PER_ELEMENT = 30
APPLY_BYTES_PER_ELEMENT = 176
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
GAIN_EPS = 1e-6


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.traced: list[str] = []
        self.samples = defaultdict(list)  # hook name -> recorded values
        self.pair_keys: set = set()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._restore: list = []

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list, Span]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, perf_counter(), parent, threading.get_ident())
        stack.append(span)
        return stack, span

    def _close(self, stack: list, span: Span) -> None:
        span.end = perf_counter()
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        stack, span = self._open(name)
        try:
            yield span
        finally:
            self._close(stack, span)

    def _in_probe(self) -> bool:
        stack = self._stack()
        return bool(stack) and stack[-1].name == PROBE

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        holders = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in holders
                   if m.__name__ != PACKAGE}
        for layer, names in LAYERS.items():
            module = modules.get(layer)
            for name in names:
                qual = f"{layer}.{name}"
                original = getattr(module, name, None) if module else None
                if not callable(original):
                    self.missing.append(qual)
                    continue
                wrapper = self._wrap(qual, original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attr, value))
                            setattr(holder, attr, wrapper)
                self.traced.append(qual)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()

    def _wrap(self, qual: str, original):
        hook = _HOOKS.get(qual)
        signature = inspect.signature(original) if hook else None
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_probe():
                return original(*args, **kwargs)
            stack, span = tracer._open(qual)
            cpu0 = thread_time() if hook else 0.0
            try:
                result = original(*args, **kwargs)
            finally:
                cpu_ms = (thread_time() - cpu0) * 1e3 if hook else 0.0
                tracer._close(stack, span)
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(tracer, original, cpu_ms, bound.arguments, result)
                except (TypeError, KeyError, AttributeError):
                    pass  # the signature or result changed: skip the derived metric
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", qual)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    def probe(self, fn, arguments: dict):
        """Run fn(**arguments) untraced, as a child span of the caller;
        returns its result and the calling thread's CPU time in ms."""
        stack, span = self._open(PROBE)
        cpu0 = thread_time()
        try:
            result = fn(**arguments)
        finally:
            cpu_ms = (thread_time() - cpu0) * 1e3
            self._close(stack, span)
        return result, cpu_ms

    # -- results --------------------------------------------------------------
    def self_times(self) -> dict:
        """Self time per span: duration minus the union of child intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered, cursor = 0.0, s.start
            for a, b in sorted(children.get(id(s), ())):
                a, b = max(a, cursor), min(b, s.end)
                if b > a:
                    covered += b - a
                    cursor = b
            out[id(s)] = (s.end - s.start) - covered
        return out

    def layer_metrics(self) -> tuple[dict, dict]:
        """(per-function calls and self_s, self-time share of each module)."""
        self_time = self.self_times()
        calls = defaultdict(int)
        seconds = defaultdict(float)
        for s in self.spans:
            calls[s.name] += 1
            seconds[s.name] += self_time[id(s)]
        metrics = {}
        for qual in self.traced:
            metrics[f"{qual}.calls"] = calls[qual]
            metrics[f"{qual}.self_s"] = seconds[qual]
        per_module = {layer: sum(seconds[f"{layer}.{n}"] for n in names)
                      for layer, names in LAYERS.items()}
        total = sum(per_module.values()) or 1.0
        return metrics, {k: v / total for k, v in per_module.items()}

    def sample_latencies_ms(self) -> list[float]:
        """Per-sample wall time in ms: from each sample_state call to the end
        of the last span its thread records before the next sample_state,
        capped at the end of the sample's parent span."""
        by_thread = defaultdict(list)
        for s in self.spans:
            if s.name != PROBE:
                by_thread[s.thread].append(s)
        out = []
        for spans in by_thread.values():
            spans.sort(key=lambda s: s.start)
            current, last_end = None, 0.0
            for s in spans + [None]:
                if s is None or s.name == SAMPLE_MARKER:
                    if current is not None:
                        cap = current.parent.end if current.parent else last_end
                        out.append((min(last_end, cap) - current.start) * 1e3)
                    current = s
                    last_end = s.end if s is not None else 0.0
                elif current is not None and s.start >= current.start:
                    last_end = max(last_end, s.end)
        return out

    def derived_metrics(self) -> dict:
        s = self.samples
        m = {}
        cd_calls = len(s["cd.total_ms"])
        if cd_calls:
            m["measures.cd.grid_ms_per_pair"] = float(np.mean(s["cd.grid_ms"]))
            m["measures.cd.refine_ms_per_pair"] = float(np.mean(s["cd.refine_ms"]))
            m["measures.cd.calls_per_pair"] = cd_calls / len(self.pair_keys)
            m["measures.cd.converged_frac"] = float(np.mean(s["cd.converged"]))
            gains = np.asarray(s["cd.gain"])
            m["measures.cd.refine_gain_frac"] = float(np.mean(gains > GAIN_EPS))
            m["measures.cd.refine_gap_max"] = float(np.max(gains))
        if s["lw.total_ms"]:
            m["measures.lw.grid_ms_per_pair"] = float(np.mean(s["lw.grid_ms"]))
            m["measures.lw.refine_ms_per_pair"] = float(np.mean(s["lw.refine_ms"]))
        m["channels.apply_uniform.flops"] = float(sum(s["apply.flops"]))
        m["channels.apply_uniform.bytes"] = float(sum(s["apply.bytes"]))
        return m


def tail_percentile(values) -> tuple[float, float, int]:
    """(value, percentile, count beyond it) for the highest percentile with
    at least 10 samples beyond it; (max, 100, 0) if there are fewer than 20."""
    values = np.asarray(values, dtype=float)
    for q in TAIL_PERCENTILES:
        beyond = int(values.size * (1 - q / 100))
        if beyond >= 10:
            return float(np.percentile(values, q)), q, beyond
    return (float(values.max()) if values.size else 0.0), 100.0, 0


def _optimizer_hook(prefix: str, record_pair: bool):
    def hook(tracer, original, total_ms, arguments, result):
        s = tracer.samples
        s[f"{prefix}.total_ms"].append(total_ms)
        if arguments.get("refine", True):
            grid_result, grid_ms = tracer.probe(original, dict(arguments, refine=False))
        else:
            grid_result, grid_ms = result, total_ms
        s[f"{prefix}.grid_ms"].append(grid_ms)
        s[f"{prefix}.refine_ms"].append(max(0.0, total_ms - grid_ms)
                                        if arguments.get("refine", True) else 0.0)
        if record_pair:
            tracer.pair_keys.add(arguments["rho2"].matrix.tobytes())
            s[f"{prefix}.converged"].append(bool(result.converged))
            s[f"{prefix}.gain"].append(result.value - grid_result.value)
    return hook


def _apply_hook(tracer, original, cpu_ms, arguments, result):
    n = arguments["rho"].n_qubits
    ops = len(arguments["ch"].kraus_ops)
    elements = n * ops * 4**n
    tracer.samples["apply.flops"].append(APPLY_FLOPS_PER_ELEMENT * elements)
    tracer.samples["apply.bytes"].append(APPLY_BYTES_PER_ELEMENT * elements)


_HOOKS = {
    "measures.classical_discord_detailed": _optimizer_hook("cd", True),
    "measures.local_work": _optimizer_hook("lw", False),
    "channels.apply_uniform": _apply_hook,
}


def write_spans(spans, path) -> None:
    """Write spans once, as CSV rows: index, name, start, end, parent index,
    thread (times in seconds from the first span)."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "name", "start_s", "end_s", "parent", "thread"])
        for i, s in enumerate(spans):
            parent = index.get(id(s.parent), "") if s.parent is not None else ""
            w.writerow([i, s.name, f"{s.start - t0:.9f}", f"{s.end - t0:.9f}",
                        parent, s.thread])
