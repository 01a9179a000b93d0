"""Spans and counters for the traced benchmark run.

The tracer wraps the public functions of gamebound from the outside: every
module-level reference to a listed function is replaced by a wrapper that
records a span (name, start, end, parent span, instance id). numpy.linalg
decompositions and ucsim.qubit_state are counted without spans, because
they run hundreds of thousands of times per pass. An untraced run wraps
nothing.
"""
from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from gamebound.config import SOLVER_MAX_ITER
from workloads import VERIFY_ONLY

# Functions recorded as spans; HOOKS below keeps extra statistics for some.
SPANNED = (
    "discrimination.optimal_discrimination",
    "discrimination.guessing_probability",
    "games.verify_main_theorem",
    "hashing.privacy_amp_distance",
    "bcjl.na_binding",
    "bcjl.ball_verifier",
    "bcjl.overlap_bound_check",
    "linalg.spectral_norm",
    "commitments.adaptive_binding",
    "ucsim.run_ot_protocol",
    "ucsim.simulate_corrupted_sender",
    "ucsim.simulate_corrupted_receiver",
    "onecc.simulate_commit",
    "accessible.imax_for_measurement",
)
COUNTED = ("ucsim.qubit_state",)
CRITERIA = tuple(int(c) for c in VERIFY_ONLY.split(","))


def _optimal_discrimination_stats(stats, args, kwargs, cert):
    max_iter = kwargs.get("max_iter", args[2] if len(args) > 2 else SOLVER_MAX_ITER)
    stats["iterations"] += cert.iterations
    stats["iterations_max"] = max(stats["iterations_max"], cert.iterations)
    stats["unconverged"] += int(not cert.converged)
    stats["at_iter_cap"] += int(cert.iterations >= max_iter)
    stats["worst_gap"] = max(stats["worst_gap"], cert.gap)


def _na_binding_stats(stats, args, kwargs, result):
    instance = args[0]
    zeros, ones = instance.openings_for(0), instance.openings_for(1)
    stats["pairs_evaluated"] += result["pairs_evaluated"]
    if zeros and ones:
        # Pairs that exist, counted once per distinct instance.
        key = (instance.code.n, instance.delta, instance.hash_member,
               instance.syndrome_bits, instance.masked_bit)
        stats.setdefault("spaces", {})[key] = len(zeros) * len(ones) * 4**instance.n
        slack = result["bound"] - result["max_sum"]
        stats["max_sum_slack"] = min(stats.get("max_sum_slack", slack), slack)


def _adaptive_binding_stats(stats, args, kwargs, report):
    stats["net_slack_max"] = max(stats["net_slack_max"], report.details.get("net_slack", 0.0))


def _run_ot_stats(stats, args, kwargs, transcript):
    stats["aborted"] += int(transcript.aborted)


def _report_save_stats(stats, args, kwargs, result):
    stats["bytes"] += os.path.getsize(args[1])


HOOKS = {
    "discrimination.optimal_discrimination": _optimal_discrimination_stats,
    "bcjl.na_binding": _na_binding_stats,
    "commitments.adaptive_binding": _adaptive_binding_stats,
    "ucsim.run_ot_protocol": _run_ot_stats,
    "report.save": _report_save_stats,
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every metric a traced run prints."""
    out = []
    for name in SPANNED:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.busy_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower"), (f"{name}.p50_ms", "ms", "lower"),
                (f"{name}.max_ms", "ms", "lower")]
    d = "discrimination.optimal_discrimination"
    out += [(f"{d}.tail_ms", "ms", "lower"), (f"{d}.iterations", "count", "lower"),
            (f"{d}.iterations_max", "count", "lower"), (f"{d}.unconverged", "count", "lower"),
            (f"{d}.at_iter_cap", "count", "lower"), (f"{d}.worst_gap", "value", "lower"),
            ("bcjl.na_binding.pairs_evaluated", "count", "higher"),
            ("bcjl.na_binding.pairs_total", "count", "lower"),
            ("bcjl.na_binding.max_sum_slack", "value", "higher"),
            ("commitments.adaptive_binding.net_slack_max", "value", "lower"),
            ("ucsim.run_ot_protocol.aborted", "count", "lower"),
            ("ucsim.qubit_state.calls", "count", "lower"),
            ("kernel.eigh_calls", "count", "lower"), ("kernel.eigvalsh_calls", "count", "lower"),
            ("kernel.svd_calls", "count", "lower"), ("kernel.eig_s", "s", "lower"),
            ("kernel.eig_dim3_sum", "count", "lower")]
    out += [(f"acceptance.criterion_{c:02d}_s", "s", "lower") for c in CRITERIA]
    out += [("cli.overhead_s", "s", "lower"), ("report.save_s", "s", "lower"),
            ("report.bytes", "bytes", "lower"), ("machine.calib_ms", "ms", "lower"),
            ("run.failed_share", "ratio", "lower"), ("traced.pass_s", "s", "lower"),
            ("traced.call_p50_ms", "ms", "lower")]
    return out


def tail(values_ms: list[float]) -> float:
    """Value with exactly ten samples above it, or the maximum for <= 10 samples."""
    ordered = sorted(values_ms)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.instance = None
        self.stats = defaultdict(lambda: defaultdict(float))
        self.kernel = defaultdict(float)
        self._undo: list = []
        self.t0 = time.perf_counter()

    # -- installation ---------------------------------------------------------

    def _replace_everywhere(self, orig, wrapper) -> None:
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("gamebound"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _span(self, name, fn, hook=None):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (name, start, end, parent, self.instance)
            if hook is not None:
                hook(self.stats[name], args, kwargs, return_value)
            return return_value
        return wrapper

    def _counted(self, name, fn):
        stats = self.stats[name]

        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _kernel(self, kind, fn):
        kernel = self.kernel

        def wrapper(a, *args, **kwargs):
            start = time.perf_counter()
            out = fn(a, *args, **kwargs)
            elapsed = time.perf_counter() - start
            shape = np.shape(a)
            if kind == "norm":
                order = args[0] if args else kwargs.get("ord")
                if order == 2 and len(shape) == 2:
                    kernel["svd_calls"] += 1
                return out
            kernel[f"{kind}_calls"] += 1
            if kind in ("eigh", "eigvalsh"):
                kernel["eig_s"] += elapsed
                d = shape[-1]
                kernel["eig_dim3_sum"] += int(np.prod(shape[:-2], dtype=np.int64)) * d**3
            return out
        return wrapper

    def install(self) -> None:
        from gamebound import acceptance, cli, report

        for full in SPANNED:
            module, func = full.split(".")
            orig = getattr(importlib.import_module(f"gamebound.{module}"), func)
            self._replace_everywhere(orig, self._span(full, orig, HOOKS.get(full)))
        for full in COUNTED:
            module, func = full.split(".")
            orig = getattr(importlib.import_module(f"gamebound.{module}"), func)
            self._replace_everywhere(orig, self._counted(full, orig))
        # run_all iterates this tuple, so the criteria are wrapped inside it.
        self._undo.append((acceptance, "ALL_CRITERIA", acceptance.ALL_CRITERIA))
        acceptance.ALL_CRITERIA = tuple(
            self._span(f"acceptance.criterion_{i:02d}", fn)
            for i, fn in enumerate(acceptance.ALL_CRITERIA, start=1)
        )
        self._undo.append((cli, "main", cli.main))
        cli.main = self._span("cli.main", cli.main)
        save = report.ExperimentReport.save
        self._undo.append((report.ExperimentReport, "save", save))
        report.ExperimentReport.save = self._span("report.save", save, HOOKS["report.save"])
        for kind in ("eigh", "eigvalsh", "svd", "norm"):
            orig = getattr(np.linalg, kind)
            self._undo.append((np.linalg, kind, orig))
            setattr(np.linalg, kind, self._kernel(kind, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        durations = defaultdict(list)
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            durations[name].append(end - start)
            if parent is not None:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[sid]
        out: dict[str, float] = {}
        for name in SPANNED:
            times = durations.get(name, [])
            ms = [1e3 * t for t in times]
            out[f"{name}.calls"] = len(times)
            out[f"{name}.busy_s"] = sum(times)
            out[f"{name}.self_s"] = self_time[name]
            out[f"{name}.p50_ms"] = statistics.median(ms) if ms else 0.0
            out[f"{name}.max_ms"] = max(ms) if ms else 0.0
        d = "discrimination.optimal_discrimination"
        solver_ms = [1e3 * t for t in durations.get(d, [])]
        out[f"{d}.tail_ms"] = tail(solver_ms) if solver_ms else 0.0
        for key in ("iterations", "iterations_max", "unconverged", "at_iter_cap", "worst_gap"):
            out[f"{d}.{key}"] = self.stats[d][key]
        b = "bcjl.na_binding"
        out[f"{b}.pairs_evaluated"] = self.stats[b]["pairs_evaluated"]
        out[f"{b}.pairs_total"] = sum(self.stats[b].get("spaces", {}).values())
        out[f"{b}.max_sum_slack"] = self.stats[b]["max_sum_slack"]
        out["commitments.adaptive_binding.net_slack_max"] = (
            self.stats["commitments.adaptive_binding"]["net_slack_max"])
        out["ucsim.run_ot_protocol.aborted"] = self.stats["ucsim.run_ot_protocol"]["aborted"]
        out["ucsim.qubit_state.calls"] = self.stats["ucsim.qubit_state"]["calls"]
        for key in ("eigh_calls", "eigvalsh_calls", "svd_calls", "eig_s", "eig_dim3_sum"):
            out[f"kernel.{key}"] = self.kernel[key]
        criteria_s = 0.0
        for c in CRITERIA:
            busy = sum(durations.get(f"acceptance.criterion_{c:02d}", []))
            out[f"acceptance.criterion_{c:02d}_s"] = busy
            criteria_s += busy
        cli_s = sum(durations.get("cli.main", []))
        out["cli.overhead_s"] = cli_s - criteria_s if cli_s else 0.0
        out["report.save_s"] = sum(durations.get("report.save", []))
        out["report.bytes"] = self.stats["report.save"]["bytes"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, instance) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - self.t0,
                    "end": end - self.t0, "parent": parent, "instance": instance,
                }) + "\n")
