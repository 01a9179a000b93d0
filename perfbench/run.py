#!/usr/bin/env python3
"""Benchmark for gamebound: how fast certified verdicts come back, end to end
and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 0 --seconds 30 --trace 0

The package is imported from src/ of that checkout; nothing is installed.
A run builds the workload's inputs from --seed, then runs passes over them,
checking every call's output, until --seconds have elapsed; the first pass
always completes and a later one stops at the deadline. Results must also
match those of the first run of the same workload and seed on the same
program and benchmark sources, which are kept in .perfbench/. Call times are
scaled to a nominal host speed measured by a reference kernel run between
the calls (see Reference), and timings come from each operation's mean
scaled call time over the whole run. setup_s is the median of at least five
set-ups (an import in a fresh interpreter, input generation and a warm-up
call), one before the first pass and one after each, scaled the same way. With --trace 1 it runs exactly one traced pass instead, prints the per-layer
metrics and writes the spans to .perfbench/ as JSON lines. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Workloads and metrics are described in perfbench/GLOSSARY.md.
"""
import os

# One BLAS thread: every workload is one closed-loop caller on small dense
# matrices, and a fixed thread count keeps runs comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
# The host is shared with other tenants, and its speed for one thread drifted
# by up to a third between consecutive runs of the same code and by tens of
# percent within seconds. End-to-end times are therefore scaled to a host on
# which the reference kernel takes REFERENCE_MS: the kernel runs between the
# calls for REFERENCE_SHARE of their time, and each call and set-up is scaled
# by the kernel's mean time within REFERENCE_WINDOW_S of it. The raw times
# are printed in the detail line.
REFERENCE_SHARE = 0.05
REFERENCE_MS = 10.0
REFERENCE_WINDOW_S = 3.0
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("pass_s", "s"),
)


class Reference:
    """A fixed kernel, 50 eighs of one 32x32 matrix and a 20,000-step
    interpreter loop, run between the calls for REFERENCE_SHARE of their
    time, so that its times follow the host's speed where the calls spent
    theirs. The eigh is bound here, before a tracer wraps numpy.linalg, so
    the traced counts never include it."""

    def __init__(self, np) -> None:
        rng = np.random.default_rng(0)
        g = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        self.h = g + g.conj().T
        self.eigh = np.linalg.eigh
        self.starts: list[float] = []
        self.ms: list[float] = []
        self.owed_s = 0.0
        for _ in range(3):  # warm-up, not counted
            self.rep()
        self.starts.clear()
        self.ms.clear()

    def rep(self) -> None:
        start = time.perf_counter()
        for _ in range(50):
            self.eigh(self.h)
        total = 0
        for i in range(20000):
            total += i * i
        self.starts.append(start)
        self.ms.append(1e3 * (time.perf_counter() - start))

    def keep_up(self, call_s: float) -> None:
        self.owed_s += REFERENCE_SHARE * call_s
        while self.owed_s > 0.0 or not self.ms:
            self.rep()
            self.owed_s -= self.ms[-1] / 1e3

    def host_factor(self, start: float, seconds: float) -> float:
        """How much slower than nominal the host ran around a call: the
        kernel's mean time within REFERENCE_WINDOW_S of it over REFERENCE_MS."""
        lo = bisect.bisect_left(self.starts, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + REFERENCE_WINDOW_S)
        return statistics.fmean(self.ms[lo:hi] or self.ms) / REFERENCE_MS

    def scaled(self, tally: "Tally") -> list[list[float]]:
        """Every call's time at the nominal host speed, per operation."""
        return [[t / self.host_factor(s, t) for s, t in zip(starts, seconds)]
                for starts, seconds in zip(tally.starts, tally.seconds)]


@dataclass
class Tally:
    """Every call of one run, per operation: its start and time in seconds,
    the items one call certifies, and the calls that failed."""
    starts: list
    seconds: list
    items: list
    attempted: int = 0
    problems: list = field(default_factory=list)  # (pass, op index, messages)
    signatures: dict = field(default_factory=dict)  # op index -> first result

    @classmethod
    def of(cls, ops) -> "Tally":
        return cls([[] for _ in ops], [[] for _ in ops], [0] * len(ops))


def run_pass(ops, tally: Tally, reference: Reference, pass_no: int, deadline=None,
             tracer=None) -> bool:
    """Call every operation once, in order, checking each result against the
    first results of this workload and seed, and keeping the reference kernel
    up with the calls. Returns False if the deadline passed before the pass
    was complete."""
    for idx, op in enumerate(ops):
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        if tracer is not None:
            tracer.instance = idx
        tally.attempted += 1
        start = time.perf_counter()
        try:
            value = op.call()
            elapsed = time.perf_counter() - start
            items, signature, problems = op.check(value)
        except Exception as exc:  # a crash in a call or its check fails it; keep measuring
            tally.problems.append((pass_no, idx, [f"{type(exc).__name__}: {exc}"]))
            continue
        tally.starts[idx].append(start)
        tally.seconds[idx].append(elapsed)
        tally.items[idx] = items
        signature = json.dumps(signature)
        if tally.signatures.setdefault(idx, signature) != signature:
            problems = [*problems, "result differs from the first run"]
        if problems:
            tally.problems.append((pass_no, idx, problems))
        reference.keep_up(elapsed)
    return True


def quantile(np, values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted average of all order statistics instead of the single
    one at rank q*n: a workload has only 4-86 operations whose times are
    spread unevenly, and one order statistic jumps between neighbours under
    timing noise (Harrell and Davis, Biometrika 69(3), 1982).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, cdf.size), cdf)
    return float(np.dot(np.diff(edges), x))


def import_seconds() -> float:
    """Seconds to import numpy and gamebound in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import numpy, gamebound.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip())


def machine_record(np) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


def summarise(np, ops, seconds, items, indices):
    """End-to-end numbers over the given operations, from each one's mean
    call time over the run; None if none of them returned.

    A pass's time is the sum of those means, so every call of the run counts
    however the deadline cut the last pass. Call percentiles are taken over
    the operations' means; the tail is the quantile with ten operations above
    it, or the slowest below 40 operations, where that quantile would sit
    under the 75th percentile.
    """
    mean_s = {i: statistics.fmean(seconds[i]) for i in indices if seconds[i]}
    sampled = [1e3 * t for i, t in mean_s.items() if ops[i].sampled]
    if not sampled:
        return None
    pass_s = sum(mean_s.values())
    n = len(sampled)
    tail_q = (n - 10) / n if n >= 40 else 1.0
    return {
        "items_per_s": sum(items[i] for i in mean_s) / pass_s,
        "call_p50_ms": quantile(np, sampled, 0.5),
        "call_tail_ms": quantile(np, sampled, tail_q) if tail_q < 1.0 else max(sampled),
        "pass_s": pass_s,
        "samples": n,
        "tail_percentile": 100.0 * tail_q,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gamebound" / "__init__.py").is_file():
        print(f"error: no gamebound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workloads.OUT_DIR.mkdir(exist_ok=True)

    build = workloads.WORKLOADS[args.workload]

    def set_up():
        """A fresh-interpreter import, then building the inputs and a warm-up
        call; returns (start, seconds) and the workload."""
        start = time.perf_counter()
        import_s = import_seconds()
        built_at = time.perf_counter()
        built = build(args.seed)
        built.warm_up()
        return (start, import_s + time.perf_counter() - built_at), built

    # Set-up is measured again after every pass, so that its median reflects
    # the host's speed over the whole run and not at one instant.
    first_setup, workload = set_up()
    setups = [first_setup]
    host = Reference(np)
    ops = workload.ops
    tally = Tally.of(ops)

    # Every call must reproduce exactly the certified values of the first
    # run of this workload and seed on the same program and benchmark
    # sources, traced or not.
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "gamebound").glob("*.py"),
                        *Path(__file__).resolve().parent.glob("*.py")]):
        digest.update(path.read_bytes())
    first_results = workloads.OUT_DIR / (
        f"results-{args.workload}-{args.seed}-{digest.hexdigest()[:12]}.json")
    if first_results.is_file():
        saved = json.loads(first_results.read_text(encoding="utf-8"))
        tally.signatures = {int(idx): sig for idx, sig in saved.items()}

    passes = 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_pass(ops, tally, host, 0, tracer=tracer)
        finally:
            tracer.uninstall()
        passes = 1
        setups.append(set_up()[0])
        tracer.write_spans(workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        # The first pass always completes; later ones stop at the deadline,
        # so a run cut mid-pass still counts each call it made.
        deadline = time.perf_counter() + args.seconds
        while run_pass(ops, tally, host, passes, deadline if passes else None):
            passes += 1
            setups.append(set_up()[0])
            if time.perf_counter() >= deadline:
                break
    while len(setups) < SETUPS:
        setups.append(set_up()[0])
    setup_s = statistics.median(t / host.host_factor(s, t) for s, t in setups)

    if not first_results.is_file():
        partial = first_results.with_suffix(".tmp")
        partial.write_text(json.dumps(tally.signatures), encoding="utf-8")
        os.replace(partial, first_results)
    failed = len(tally.problems)

    scaled = host.scaled(tally)
    summary = summarise(np, ops, scaled, tally.items, range(len(ops)))
    if summary is None:
        print(f"error: every call failed: {tally.problems[:3]}", file=sys.stderr)
        return 1
    raw = summarise(np, ops, tally.seconds, tally.items, range(len(ops)))
    parts = {}
    for part in dict.fromkeys(op.part for op in ops):
        parts[part] = summarise(np, ops, scaled, tally.items,
                                [i for i, op in enumerate(ops) if op.part == part])

    if tracer is None:
        values = {"setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  **{k: summary[k] for k in ("items_per_s", "call_p50_ms",
                                             "call_tail_ms", "pass_s")}}
        units = dict(END_TO_END)
    else:
        values = tracer.metrics()
        values.update({
            "machine.calib_ms": statistics.fmean(host.ms),
            "run.failed_share": failed / tally.attempted,
            "traced.pass_s": summary["pass_s"],
            "traced.call_p50_ms": summary["call_p50_ms"],
        })
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        if set(values) != set(units):
            raise RuntimeError(f"per-layer metrics out of sync: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}

    for pass_no, idx, problems in tally.problems:
        print(f"FAIL pass {pass_no} op {idx}: {'; '.join(problems)}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "complete_passes": passes,
        "calls": tally.attempted, "calls_per_op": [len(s) for s in tally.seconds],
        "samples": summary["samples"], "tail_percentile": summary["tail_percentile"],
        "parts": parts, "raw": raw, "host_factor": raw["pass_s"] / summary["pass_s"],
        "reference_runs": len(host.ms), "failed_share": failed / tally.attempted,
        "calib_ms": statistics.fmean(host.ms), "setup_runs_s": [t for _, t in setups],
        "machine": machine_record(np),
    }}))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
