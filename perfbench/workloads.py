"""The benchmark's workloads: seeded inputs, the calls that are timed, and
the correctness check of every call.

A workload is a fixed list of operations, built from the seed, that one
pass runs in order. Each operation has a `call` (timed, touches only the
public API of gamebound) and a `check` (untimed) that returns the work
items the call certified, a signature of its deterministic results, and a
list of problems; a non-empty list counts the operation as failed. A
workload made of several parts interleaves their operations in an order
drawn from the seed, so that a run cut short by its deadline has sampled
every part over the whole run.

Tolerances below are the ones pinned in gamebound.acceptance, applied to
the conservative side of each certificate.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gamebound import bcjl, cli, coding, commitments, discrimination, games, hashing, ucsim
from gamebound.discrimination import CqState
from gamebound.linalg import hermitize
from gamebound.rand import (
    haar_unitary,
    random_density_matrix,
    random_projector,
    random_pure_vector,
    rng_from_seed,
)
from gamebound.registers import RegisterShape
from gamebound.states import density_from_matrix

# Reports and traces go here, inside the checkout the benchmark runs from.
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"
# The game and cq families are drawn once from this fixed seed; --seed then
# rotates every instance by Haar-random local unitaries.
# Certified values and the fixed-point solver's iterates are covariant under
# those unitaries, so the seed changes every matrix the program sees but not
# the mix of easy and slow solves. Fresh random instances per seed made the
# heavy-tailed iteration counts dominate: at 70 games a run, the spread of
# games per second across seeds was 0.3 of its median.
FAMILY_SEED = 777
GAME_SHAPES = tuple(itertools.product((2, 4), (2, 4), (2, 3, 4), (1, 2)))  # A, B, tests, A'
GAME_COUNT = 40
# Index 110 of the family stream is the first game whose adaptive solve stops
# at the 10,000-iteration cap; it is kept so the tail that a new solver core
# targets is always measured.
GAME_AT_CAP = 110
CQ_SHAPES = tuple(itertools.product((2, 3, 4), (2, 3, 4)))  # bits, dim E
CQ_COUNT = 45
PAIR_CALLS = 48
PAIR_BUDGET = 8
OPENING_SHAPES = tuple(itertools.product((4, 6), (1, 2), (1, 2)))  # dim B, openings per bit
# Honest protocol runs are timed in batches of 100 (about a second each).
# Single 1-ms runs measured the host instead of the program: the slowest of
# 1,200 was an interrupt, and batches of 10 read 7 or 10 ms at the median
# depending on which of two speeds the shared host ran at.
OT_BATCHES = 12
OT_BATCH = 100
OT_DEMO_RUNS = 400
# Every criterion except 03, 07, 08, 09 and 12. 03, 08, 09 and 12 take
# 45-90 s a battery and their instance shapes are the certify and open-bind
# workloads; 03, 07 and 09 spend their time in solves whose iteration counts
# vary with the seed (07 took 2.9-4.1 s over seeds 0-9, about a third of
# the battery), which spread the battery's time across seeds beyond any
# usable bound.
VERIFY_ONLY = "1,2,4,5,6,10,11"
# Criteria 04 and 10 do seed-dependent work (1.03-1.32 s and 0.20-0.29 s over
# five seeds), so a pass runs the battery on several seeds and the benchmark
# seed picks them.
BATTERIES = 4


@dataclass
class Op:
    call: Callable[[], Any]
    check: Callable[[Any], tuple[int, Any, list[str]]]
    sampled: bool = True  # False for calls that run many items (demo batches)
    part: str = ""


@dataclass
class Workload:
    ops: list[Op]
    warm_up: Callable[[], Any]


def _parts(seed: int, **parts: Workload) -> Workload:
    """One workload from named parts: their operations shuffled together by
    the seed, and every part's warm-up call."""
    ops = []
    for name, part in parts.items():
        for op in part.ops:
            op.part = name
            ops.append(op)
    order = rng_from_seed((seed, 2)).permutation(len(ops))
    warm_ups = [part.warm_up for part in parts.values()]
    return Workload([ops[i] for i in order], lambda: [w() for w in warm_ups])


def _rotated_game(game: games.AttackGame, rng) -> games.AttackGame:
    dim_a, dim_ap, dim_b = game.dims
    u_b = haar_unitary(dim_b, rng)
    u = np.kron(np.kron(haar_unitary(dim_a, rng), haar_unitary(dim_ap, rng)), u_b)
    state = density_from_matrix(
        game.state.shape, hermitize(u @ game.state.matrix @ u.conj().T))
    effects = tuple(hermitize(u_b @ e @ u_b.conj().T) for e in game.family.effects)
    return games.AttackGame(state, games.BinaryPovmFamily(game.family.labels, effects))


def _game_op(game: games.AttackGame) -> Op:
    dim_ap = game.dims[1]

    def check(res):
        problems = []
        cert = res.adaptive_cert
        if cert.gap > 1e-7:
            problems.append(f"certificate gap {cert.gap:.3e} > 1e-7")
        if not res.ok:
            problems.append("bound chain failed")
        # Main theorem with the measured register A A': H0(A A') <= H0(A) + lg dim A'.
        bound = 2.0**res.zero_entropy_a * dim_ap * res.non_adaptive + 1e-6
        if cert.dual_value > bound:
            problems.append(f"adaptive dual {cert.dual_value!r} > {bound!r}")
        sig = (res.non_adaptive, res.semi_adaptive, res.adaptive, cert.dual_value,
               res.semi_cert.dual_value, res.zero_entropy_a)
        return 1, sig, problems

    return Op(lambda: games.verify_main_theorem(game, tol=1e-6, solver_tol=1e-9), check)


def games_workload(seed: int) -> Workload:
    indices = list(range(GAME_COUNT)) + [GAME_AT_CAP]
    rng = rng_from_seed((seed, 1))
    ops = []
    for k in indices:
        dim_a, dim_b, tests, dim_ap = GAME_SHAPES[k % len(GAME_SHAPES)]
        game = games.random_game(dim_a, dim_b, tests, seed=(FAMILY_SEED, k), dim_aprime=dim_ap)
        ops.append(_game_op(_rotated_game(game, rng)))
    bell = games.bell_game()
    return Workload(ops, lambda: games.verify_main_theorem(bell, tol=1e-6, solver_tol=1e-9))


def _cq_family_member(k: int) -> tuple[int, list[float], list[np.ndarray]]:
    bits, dim_e = CQ_SHAPES[k % len(CQ_SHAPES)]
    rng = rng_from_seed((FAMILY_SEED, 9, k))
    weights = rng.random(2**bits)
    weights /= weights.sum()
    return bits, [float(w) for w in weights], [
        random_density_matrix(dim_e, rng) for _ in range(2**bits)]


def _cq_state(weights, matrices) -> CqState:
    dim_e = matrices[0].shape[0]
    shape = RegisterShape((("E", dim_e),))
    return CqState(tuple(range(len(weights))), tuple(weights),
                   tuple(density_from_matrix(shape, m) for m in matrices))


def _cq_op(cq: CqState, bits: int) -> Op:
    def call():
        return hashing.privacy_amp_distance(cq, bits), discrimination.guessing_probability(cq)

    def check(result):
        distance, cert = result
        problems = []
        hmin = -math.log2(cert.dual_value)
        bound = 0.5 * 2.0 ** (-(hmin - 1.0) / 2.0)
        if distance > bound + 1e-9:
            problems.append(f"distance {distance!r} > bound {bound!r}")
        if cert.gap > 1e-7:
            problems.append(f"guessing gap {cert.gap:.3e} > 1e-7")
        return 1, (distance, cert.primal_value, cert.dual_value), problems

    return Op(call, check)


def cq_workload(seed: int) -> Workload:
    rng = rng_from_seed((seed, 9))
    ops = []
    for k in range(CQ_COUNT):
        bits, weights, matrices = _cq_family_member(k)
        u = haar_unitary(matrices[0].shape[0], rng)
        rotated = [hermitize(u @ m @ u.conj().T) for m in matrices]
        ops.append(_cq_op(_cq_state(weights, rotated), bits))
    small = _cq_state([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.5, 0.5])])
    return Workload(ops, _cq_op(small, 1).call)


def _binding_op(instance: bcjl.BcjlInstance, budget, seed, exhaustive: bool) -> Op:
    def check(r):
        problems = []
        if r["max_sum"] > r["bound"] + 1e-9:
            problems.append(f"max_sum {r['max_sum']!r} > bound {r['bound']!r}")
        if not r["overlap_bound_ok"]:
            problems.append("overlap bound failed")
        if exhaustive and not (r["exhaustive"] and abs(r["max_sum"] - r["bound"]) <= 1e-9):
            problems.append("exhaustive instance does not meet its bound with equality")
        return r["pairs_evaluated"], (r["max_sum"], r["pairs_evaluated"], r["argmax"]), problems

    return Op(lambda: bcjl.na_binding(instance, budget=budget, seed=seed), check)


def pairs_workload(seed: int) -> Workload:
    """Criterion 08's two instances: [3,1] exhaustively, [7,4] by sampled pairs."""
    small = bcjl.BcjlInstance(code=coding.named_code("rep31"), delta=0.0, hash_member=1,
                              syndrome_bits=(0, 0), masked_bit=0)
    large = bcjl.BcjlInstance(code=coding.named_code("hamming74"), delta=1.0 / 7.0,
                              hash_member=5, syndrome_bits=(0, 1, 0), masked_bit=1)
    ops = [_binding_op(small, None, 0, exhaustive=True)]
    ops += [_binding_op(large, PAIR_BUDGET, (seed, 8, k), exhaustive=False)
            for k in range(PAIR_CALLS)]
    return Workload(ops, lambda: bcjl.na_binding(small))


def _opening_op(scheme, rho, eps_na: float) -> Op:
    bound = math.sqrt(2.0) * math.sqrt(eps_na)  # 2^{q/2} sqrt(eps_na) with q = 1

    def check(report):
        alpha = report.p0 + report.p1 - 1.0
        limit = bound + report.details["net_slack"] + 1e-9
        problems = [] if alpha <= limit else [f"alpha {alpha!r} > {limit!r}"]
        return 1, (report.p0, report.p1), problems

    return Op(lambda: commitments.adaptive_binding(scheme, rho, mode="projective-bruteforce"),
              check)


def _opening_inputs(dim_b: int, n0: int, n1: int, rng):
    """A scheme with n0 and n1 random projective openings on B, and a random
    pure state on one stored qubit A and B."""
    def side(prefix, count):
        return tuple(
            (f"{prefix}{j}", random_projector(dim_b, int(rng.integers(1, dim_b // 2 + 1)), rng))
            for j in range(count))
    scheme = commitments.ProjectiveCommitmentScheme(side("z", n0), side("o", n1))
    vec = random_pure_vector(2 * dim_b, rng)
    rho = density_from_matrix(RegisterShape((("A", 2), ("B", dim_b))), np.outer(vec, vec.conj()))
    return scheme, rho


def openings_workload(seed: int) -> Workload:
    """Criterion 12's qubit opening search, one scheme per shape class."""
    rng = rng_from_seed((seed, 12))
    ops = []
    for dim_b, n0, n1 in OPENING_SHAPES:
        scheme, rho = _opening_inputs(dim_b, n0, n1, rng)
        ops.append(_opening_op(scheme, rho, commitments.scheme_epsilon_na(scheme)))
    warm_scheme, warm_rho = _opening_inputs(4, 1, 1, rng_from_seed(0))
    return Workload(ops, lambda: commitments.adaptive_binding(
        warm_scheme, warm_rho, mode="projective-bruteforce"))


def _honest_ot_op(seed, first: int) -> Op:
    runs = [(k % 2, (seed, 11, k)) for k in range(first, first + OT_BATCH)]

    def check(transcripts):
        problems = []
        for (c, _), tr in zip(runs, transcripts):
            if not tr.aborted and tr.outputs["bob"] != (c,):
                problems.append(f"receiver output {tr.outputs['bob']!r} != {(c,)!r}")
        return len(runs), [(tr.aborted, repr(tr.outputs)) for tr in transcripts], problems

    return Op(lambda: [ucsim.run_ot_protocol((0,), (1,), c, 8, seed=s) for c, s in runs], check)


def _demo_op(corruption: str, script: str, c: int, seed) -> Op:
    def check(demo):
        problems = [] if demo["pass"] else [f"{corruption} demo failed, max_z {demo['max_z']}"]
        return 2 * demo["runs"], json.dumps(demo, sort_keys=True, default=str), problems

    return Op(lambda: ucsim.run_simulator_demo(
        corruption, script=script, runs=OT_DEMO_RUNS, n=8, seed=seed, s0=(0,), s1=(1,), c=c),
        check, sampled=False)


def ot_workload(seed: int) -> Workload:
    """Criterion 11's protocol runs: honest executions and both simulator demos."""
    ops = [_honest_ot_op(seed, b * OT_BATCH) for b in range(OT_BATCHES)]
    ops.append(_demo_op("sender", "fixed-state", 1, (seed, 11, 1001)))
    ops.append(_demo_op("receiver", "honest", 0, (seed, 11, 1002)))
    return Workload(ops, lambda: ucsim.run_ot_protocol((0,), (1,), 0, 8, seed=0))


def verify_all_workload(seed: int) -> Workload:
    """BATTERIES batteries through the CLI, each with its report written.
    Battery j runs with CLI seed BATTERIES * seed + j, so no two benchmark
    seeds share one."""
    expected = len(VERIFY_ONLY.split(","))

    def run_cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def battery_op(cli_seed: int) -> Op:
        out = OUT_DIR / f"verify-all-{cli_seed}.json"

        def check(result):
            code, text = result
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            passes = [ln for ln in text.splitlines()
                      if ln.startswith("PASS ") and "suite=" not in ln]
            if len(passes) != expected:
                problems.append(f"{len(passes)} PASS lines, expected {expected}")
            report = json.loads(out.read_text(encoding="utf-8"))
            for chk in report["checks"]:
                chk.pop("runtime_s", None)
            return 1, json.dumps(report, sort_keys=True), problems

        argv = ["verify-all", "--seed", str(cli_seed), "--only", VERIFY_ONLY, "--out", str(out)]
        return Op(lambda: run_cli(argv), check, part="battery")

    return Workload([battery_op(BATTERIES * seed + j) for j in range(BATTERIES)],
                    lambda: run_cli(["verify-all", "--seed", str(seed), "--only", "1,2"]))


def certify_workload(seed: int) -> Workload:
    return _parts(seed, games=games_workload(seed), cq=cq_workload(seed))


def open_bind_workload(seed: int) -> Workload:
    return _parts(seed, pairs=pairs_workload(seed), openings=openings_workload(seed),
                  ot=ot_workload(seed))


WORKLOADS = {
    "verify-all": verify_all_workload,
    "certify": certify_workload,
    "open-bind": open_bind_workload,
}
