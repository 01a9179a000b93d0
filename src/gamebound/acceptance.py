"""The acceptance suite: twelve seeded end-to-end checks with pinned
tolerances, shared by the test suite and the command line. Each criterion
returns one CheckRecord; run_all collects them into an ExperimentReport.
"""
from __future__ import annotations

import functools
import math
import time

import numpy as np

from . import accessible, bcjl, coding, commitments, games, hashing, onecc, ucsim
from .discrimination import CqState
from .rand import (
    ginibre_draws,
    ginibre_states,
    haar_projectors,
    haar_unitary,
    random_density_matrix,
    random_projector,
    rng_from_seed,
)
from .report import CheckRecord, ExperimentReport, timed_record
from .states import density_from_matrix, density_list, zero_entropy
from .registers import shape

GAMMA = math.cos(math.pi / 8.0) ** 2

# The size of each sampled criterion, which its inputs digest records.
_C03_GAMES = 200
_C04_STATES = 100
_C05_PAIRS = 100
_C06_INSTANCES = 50
_C07_SAMPLES = 100
_C09_INSTANCES = 50
_C10_RUNS = 2000
_C11_RUNS = 1000
_C12_INSTANCES = 4


def criterion_01_guessing_constant(seed=0) -> CheckRecord:
    """Single-position basis guessing equals cos^2(pi/8) at 1e-9."""
    started = time.perf_counter()
    cert = onecc.single_position_guessing()
    err = abs(cert.primal_value - GAMMA)
    passed = err <= 1e-9 and cert.gap <= 1e-9
    values = {
        "value": cert.primal_value,
        "target": GAMMA,
        "error": err,
        "certificate_gap": cert.gap,
        "iterations": cert.iterations,
    }
    return timed_record(
        "01-basis-guessing-constant", passed, values, 1e-9, 1e-9 - err,
        "solver-certificate", {"criterion": 1}, started,
    )


def criterion_02_bell_counterexample(seed=0) -> CheckRecord:
    """Adaptive 1, semi-adaptive and non-adaptive 1/4, one effective qubit,
    and the naive conditional bound flagged as violated."""
    started = time.perf_counter()
    game = games.bell_game()
    res = games.verify_main_theorem(game, tol=1e-6, solver_tol=1e-9)
    flagged = any(
        c.name == games.MAIN_BOUND and (not c.passed) and c.expected_violation
        for c in res.bound_checks
    )
    checks = {
        "adaptive": abs(res.adaptive - 1.0) <= 1e-7,
        "adaptive_gap": res.adaptive_cert.gap <= 1e-7,
        "semi": abs(res.semi_adaptive - 0.25) <= 1e-7,
        "non_adaptive": abs(res.non_adaptive - 0.25) <= 1e-7,
        "zero_entropy": res.zero_entropy_a == 1.0,
        "violation_flagged": flagged,
    }
    values = {
        "adaptive": res.adaptive,
        "semi_adaptive": res.semi_adaptive,
        "non_adaptive": res.non_adaptive,
        "zero_entropy_a": res.zero_entropy_a,
        "certificate_gap": res.adaptive_cert.gap,
        "checks": checks,
    }
    return timed_record(
        "02-bell-counterexample", all(checks.values()), values, 1e-7, None,
        "solver-certificate", {"criterion": 2}, started,
    )


def criterion_03_random_games(seed=0) -> CheckRecord:
    """Adaptive advantage capped by 2^(effective qubits) over non-adaptive on seeded random
    games, with certified duality gaps. The bound is checked on the adaptive certificate's
    dual, its upper side. A' is trivial, so semi-adaptive = non-adaptive is not solved for."""
    started = time.perf_counter()
    rng = rng_from_seed((seed, 3))
    worst_ratio_slack = math.inf
    worst_gap = 0.0
    failures = []
    for k in range(_C03_GAMES):
        dim_a = int(rng.choice([2, 4]))
        dim_b = int(rng.choice([2, 4]))
        n_tests = int(rng.integers(2, 5))
        game = games.random_game(dim_a, dim_b, n_tests, seed=(seed, 3, k))
        non_adaptive = games.non_adaptive_success(game)
        cert = games.adaptive_success(game, tol=1e-9)
        upper = 2.0**zero_entropy(game.state, games.A_LABEL) * non_adaptive + 1e-6
        worst_ratio_slack = min(worst_ratio_slack, upper - cert.dual_value)
        worst_gap = max(worst_gap, cert.gap)
        if cert.dual_value > upper:
            failures.append({"game": k, "kind": "adaptive-above-bound"})
        if non_adaptive > cert.primal_value + 1e-8:
            failures.append({"game": k, "kind": "non-adaptive-above-adaptive"})
        if cert.gap > 1e-7:
            failures.append({"game": k, "kind": "gap", "gap": cert.gap})
    values = {
        "games": _C03_GAMES,
        "adaptive_side": "dual",
        "worst_bound_slack": worst_ratio_slack,
        "worst_certificate_gap": worst_gap,
        "failures": failures[:10],
    }
    return timed_record(
        "03-adaptive-vs-nonadaptive-games", not failures, values, 1e-6,
        worst_ratio_slack, "solver-certificate", {"criterion": 3, "count": _C03_GAMES},
        started,
    )


def criterion_04_measurement_domination(seed=0) -> CheckRecord:
    """Per-measurement lambda is tight (passes at the value, fails just
    below), never exceeds the effective-qubit count, and survives local
    processing. The draws of every state and of its random POVMs come first;
    then the states of each shape are made and validated together, the POVMs
    are made in stacked groups, and all states are scored together."""
    started = time.perf_counter()
    rng = rng_from_seed((seed, 4))
    dims, state_draws, measurements = [], [], []
    draws, names = [], []
    channels = {}
    for k in range(_C04_STATES):
        # the draws rng.choice makes, without its conversion of the list
        dim_a = (2, 4)[rng.integers(0, 2)]
        dim_b = (2, 3, 4)[rng.integers(0, 3)]
        dims.append((dim_a, dim_b))
        state_draws.append(ginibre_draws(dim_a * dim_b, 1, rng))
        povms = accessible.standard_measurements(dim_a)[:3]
        for m in range(len(povms), 5):
            draws.append(ginibre_draws(dim_a, int(rng.integers(2, 5)), rng))
            names.append(f"state {k} POVM {m}")
        measurements.append(povms)
        if k % 10 == 0:
            u_a = haar_unitary(dim_a, rng)
            p = random_projector(dim_b, dim_b // 2, rng)
            channels[k] = ([u_a], [p, np.eye(dim_b) - p])
    rhos: list = [None] * _C04_STATES
    for (dim_a, dim_b), idx in accessible.groups(dims).items():
        made = density_list(shape(("A", dim_a), ("B", dim_b)),
                            ginibre_states(np.concatenate([state_draws[k] for k in idx])))
        for k, rho in zip(idx, made):
            rhos[k] = rho
    jobs = list(zip(measurements, rhos))
    channels = {k: (rhos[k], *kraus, (seed, 4, k)) for k, kraus in channels.items()}
    checked = accessible.local_channel_monotonicity_checks(list(channels.values()))
    channel_ok = {k: ok for k, (ok, _, _) in zip(channels, checked)}
    made = iter(accessible.random_povms(draws, names))
    for povms, _ in jobs:
        povms += [next(made) for _ in range(len(povms), 5)]
    scored = accessible.imax_for_states(jobs)
    # lambda and lambda - 1e-4 of every measurement, one stacked call per shape
    defects = {}
    for idx in accessible.groups([rho.shape.dims for _, rho in jobs]).values():
        found = [m for k in idx for m in scored[k]]
        sizes = [len(blocks) for _, _, blocks in found]
        per_state = [sum(len(blocks) for _, _, blocks in scored[k]) for k in idx]
        rho_b = np.repeat([accessible.reduced_b(jobs[k][1]) for k in idx], per_state, axis=0)
        lam = np.array([value for value, _, _ in found])
        both = accessible.domination_defect(
            np.concatenate([blocks for _, _, blocks in found]), rho_b, [lam, lam - 1e-4],
            np.concatenate([sigma for _, sigma, _ in found]), sizes)
        defects.update(zip(idx, both.reshape(2, len(idx), 5).swapaxes(0, 1)))
    worst_margin = math.inf
    failures = []
    for k, ((_, rho), found) in enumerate(zip(jobs, scored)):
        h0 = math.log2(rho.shape.dims[0])  # full-rank reduction by construction
        for (value, _, _), at_value, below in zip(found, *defects[k]):
            if at_value > 1e-9:
                failures.append({"state": k, "kind": "fails-at-value"})
            if below <= 0.0:
                failures.append({"state": k, "kind": "passes-below-value"})
            if value > h0 + 1e-8:
                failures.append({"state": k, "kind": "exceeds-zero-entropy"})
            worst_margin = min(worst_margin, h0 + 1e-8 - value)
        if not channel_ok.get(k, True):
            failures.append({"state": k, "kind": "channel-monotonicity"})
    values = {
        "states": _C04_STATES,
        "measurements_per_state": 5,
        "channel_checks": len(channel_ok),
        "worst_zero_entropy_margin": worst_margin,
        "failures": failures[:10],
    }
    return timed_record(
        "04-measurement-domination", not failures, values, 1e-8, worst_margin,
        "closed-form", {"criterion": 4, "n_states": _C04_STATES}, started,
    )


def _projector_pairs(rng, count: int, low: int, ranks_below):
    """`count` random_projector pairs, all drawn first in stream order (per pair a dimension
    in [low, 17), then for each side a rank in [1, ranks_below(dim)) and its Ginibre draw),
    then made by one haar_projectors call per dimension: (pair indices, first projectors,
    second projectors) for each dimension."""
    dims, ranks, draws = [], [], []
    for _ in range(count):
        dims.append(int(rng.integers(low, 17)))
        for _side in range(2):
            ranks.append(int(rng.integers(1, ranks_below(dims[-1]))))
            draws.append(ginibre_draws(dims[-1], 1, rng))
    for idx in accessible.groups(dims).values():
        sides = [2 * k + side for k in idx for side in (0, 1)]
        made = haar_projectors(np.concatenate([draws[j] for j in sides]), [ranks[j] for j in sides])
        yield idx, made[0::2], made[1::2]


def criterion_05_norm_lemma(seed=0) -> CheckRecord:
    """Spectral norm of a projector sum against one plus the product norm.
    Every pair is drawn first, then each dimension's pairs are made and checked together."""
    started = time.perf_counter()
    rng = rng_from_seed((seed, 5))
    worst = math.inf
    ok_all = True
    for _, xs, ys in _projector_pairs(rng, _C05_PAIRS, 2, lambda d: d):
        ok, lhs, rhs = commitments.norm_lemma_check(xs, ys)
        ok_all = ok_all and bool(ok.all())
        worst = min(worst, float((rhs + 1e-9 - lhs).min()))
    values = {"pairs": _C05_PAIRS, "worst_slack": worst}
    return timed_record(
        "05-norm-lemma", ok_all, values, 1e-9, worst, "closed-form",
        {"criterion": 5, "pairs": _C05_PAIRS}, started,
    )


def criterion_06_cheat_state(seed=0) -> CheckRecord:
    """The constructed two-sided opening state succeeds perfectly on one
    projector and with probability at least epsilon squared on the other.
    Candidates are drawn in rounds of exactly the shortfall, so no draw follows
    the last accepted one, and each round's pairs of one dimension are built
    with one stacked cheat_state call."""
    started = time.perf_counter()
    rng = rng_from_seed((seed, 6))
    built = 0
    worst_p0 = 1.0
    worst_p1_slack = math.inf
    failures = []
    while built < _C06_INSTANCES:
        shortfall = _C06_INSTANCES - built
        candidates: list = [None] * shortfall
        for idx, p0s, p1s in _projector_pairs(rng, shortfall, 4, lambda d: d // 2 + 1):
            for k, p0, p1, (vec, eps) in zip(idx, p0s, p1s, commitments.cheat_state(p0s, p1s)):
                candidates[k] = (p0, p1, vec, eps)
        for p0, p1, vec, eps in candidates:
            if vec is None or eps < 1e-3:
                continue
            built += 1
            succ0 = float(np.real(np.vdot(vec, p0 @ vec)))
            succ1 = float(np.real(np.vdot(vec, p1 @ vec)))
            worst_p0 = min(worst_p0, succ0)
            worst_p1_slack = min(worst_p1_slack, succ1 - (eps**2 - 1e-7))
            if succ0 < 1.0 - 1e-9:
                failures.append({"instance": built, "kind": "first-projector"})
            if succ1 < eps**2 - 1e-7:
                failures.append({"instance": built, "kind": "second-projector"})
    values = {
        "instances": _C06_INSTANCES,
        "worst_first_success": worst_p0,
        "worst_second_slack": worst_p1_slack,
        "failures": failures[:10],
    }
    return timed_record(
        "06-cheat-state", not failures, values, None, worst_p1_slack,
        "closed-form", {"criterion": 6, "instances": _C06_INSTANCES}, started,
    )


def criterion_07_wrong_opening(seed=0) -> CheckRecord:
    """Wrong-opening acceptance on sampled small-support states over the
    [7,4] distance-3 code, plus the chained adaptive bound through the
    discrimination engine."""
    started = time.perf_counter()
    rng = rng_from_seed((seed, 7))
    code = coding.named_code("hamming74")
    delta = 1.0 / 7.0
    bound = 2.0 ** (-code.min_distance() / 2.0 + code.n * coding.binary_entropy(delta))
    worst = 0.0
    failures = []
    chain = []
    for k in range(_C07_SAMPLES):
        theta = rng.integers(0, 2, size=7).astype(np.uint8)
        s = rng.integers(0, 2, size=3).astype(np.uint8)
        state = onecc.sample_smallsup_state(theta, delta, 2, seed=(seed, 7, k))
        chk = onecc.wrong_opening_bound_check(state, code, s)
        worst = max(worst, chk["worst_value"])
        if chk["worst_value"] > bound + 1e-9:
            failures.append({"sample": k, "kind": "lemma-bound"})
        if k % 10 == 0:
            member = int(rng.integers(0, 2**7))
            w = int(rng.integers(0, 2))
            adv = onecc.adaptive_wrong_opening(state, code, member, s, w)
            chain.append(adv["pass"])
            if not chain[-1]:
                failures.append({"sample": k, "kind": "chain-bound"})
    values = {
        "samples": _C07_SAMPLES,
        "worst_acceptance": worst,
        "lemma_bound": bound,
        "vacuous": bound >= 1.0,
        "chain_checks": len(chain),
        "failures": failures[:10],
    }
    return timed_record(
        "07-wrong-opening", not failures, values, bound + 1e-9,
        bound + 1e-9 - worst, "sampled-search",
        {"criterion": 7, "samples": _C07_SAMPLES}, started,
    )


def criterion_08_ball_binding(seed=0) -> CheckRecord:
    """Ball-verifier binding, exhaustive on the [3,1] repetition instance (where
    the pair bound is met with equality) and on [7,4], with the overlap bound
    checked exactly on every evaluated pair. An instance is vacuous when its
    bound is at least 2, since ||V + V'|| <= 2 for projectors: [7,4] at delta = 1/7 is."""
    started = time.perf_counter()
    inst3 = bcjl.BcjlInstance(
        code=coding.named_code("rep31"), delta=0.0, hash_member=1,
        syndrome_bits=(0, 0), masked_bit=0,
    )
    r3 = bcjl.na_binding(inst3)
    inst7 = bcjl.BcjlInstance(
        code=coding.named_code("hamming74"), delta=1.0 / 7.0, hash_member=5,
        syndrome_bits=(0, 1, 0), masked_bit=1,
    )
    r7 = bcjl.na_binding(inst7, seed=(seed, 8))
    checks = {
        "small_exhaustive": r3["exhaustive"],
        "small_bound": r3["max_sum"] <= r3["bound"] + 1e-9,
        "small_equality": abs(r3["max_sum"] - r3["bound"]) <= 1e-9,
        "small_overlap": r3["overlap_bound_ok"],
        "large_bound": r7["max_sum"] <= r7["bound"] + 1e-9,
        "large_overlap": r7["overlap_bound_ok"],
    }
    keys = ("max_sum", "bound", "pairs_evaluated", "exhaustive")
    values = {
        "small": {**{k: r3[k] for k in keys}, "vacuous": r3["bound"] >= 2.0},
        "large": {**{k: r7[k] for k in keys}, "vacuous": r7["bound"] >= 2.0},
        "checks": checks,
    }
    return timed_record(
        "08-ball-binding", all(checks.values()), values, r7["bound"] + 1e-9,
        r7["bound"] + 1e-9 - r7["max_sum"], "enumeration",
        {"criterion": 8, "budget": None}, started,
    )


def criterion_09_privacy_amplification(seed=0) -> CheckRecord:
    """Exact masked-bit distance against the certified min-entropy bound."""
    started = time.perf_counter()
    rng = rng_from_seed((seed, 9))
    worst_slack = math.inf
    failures = []
    for k in range(_C09_INSTANCES):
        n = int(rng.integers(2, 5))
        dim_e = int(rng.integers(2, 5))
        symbols = tuple(range(2**n))
        weights = rng.random(2**n)
        weights /= weights.sum()
        conditionals = tuple(
            density_from_matrix(shape(("E", dim_e)), random_density_matrix(dim_e, rng))
            for _ in symbols
        )
        cq = CqState(symbols, tuple(float(w) for w in weights), conditionals)
        ok, distance, bound, hmin = hashing.privacy_amp_check(cq, n)
        worst_slack = min(worst_slack, bound + 1e-9 - distance)
        if not ok:
            failures.append({"instance": k, "distance": distance, "bound": bound})
    values = {"instances": _C09_INSTANCES, "worst_slack": worst_slack, "failures": failures[:10]}
    return timed_record(
        "09-privacy-amplification", not failures, values, None, worst_slack,
        "solver-certificate", {"criterion": 9, "instances": _C09_INSTANCES}, started,
    )


# Criterion 10 decides each of its Monte Carlo comparisons by an exact binomial
# test at level FAMILY_RATE / _C10_TESTS (Bonferroni), so that a battery rejects
# a true null with probability at most FAMILY_RATE; each test also records the
# smallest shifts of the true rate that it detects with probability >= POWER.
FAMILY_RATE = 1e-6
POWER = 0.999
_C10_TESTS = 6  # per N: the exact tail and the Hoeffding bound; the sampling pair


@functools.lru_cache(maxsize=4)
def _log_comb(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, as one cumulative sum of log((n - k + 1) / k)."""
    k = np.arange(1.0, n + 1)
    return np.concatenate(([0.0], np.cumsum(np.log(n - k + 1) - np.log(k))))


def _binomial_pmf(n: int, p: float, ks: np.ndarray) -> np.ndarray:
    """P(X = k) for each k of `ks`, X ~ Bin(n, p) with p in [0, 1], in floating point."""
    if p in (0.0, 1.0):
        return (ks == (n if p else 0)).astype(float)
    return np.exp(_log_comb(n)[ks] + ks * math.log(p) + (n - ks) * math.log1p(-p))


def binomial_tail(n: int, p: float, k: int, upper: bool) -> float:
    """P(X >= k) if upper, else P(X <= k), for X ~ Bin(n, p): the tail's own
    terms summed, so that a small tail keeps its relative precision."""
    ks = np.arange(max(k, 0), n + 1) if upper else np.arange(min(k, n) + 1)
    return float(_binomial_pmf(n, p, ks).sum())


@functools.lru_cache(maxsize=16)
def _detected_shifts(n: int, p0: float, level: float, two_sided: bool):
    """(down, up): the smallest shifts of a Bin(n, .) rate below and above p0
    at which a tail test of `level` per side rejects with probability >= POWER,
    found by bisection on the rate; None where no rate is rejected that often."""
    pmf = _binomial_pmf(n, p0, np.arange(n + 1))
    down = up = None
    above = np.flatnonzero(np.cumsum(pmf[::-1])[::-1] <= level)  # P(X >= k) <= level
    if above.size:  # reject at X >= k_hi, whose chance grows with the rate
        k_hi = int(above[0])
        up = _bisect(lambda p: 1.0 - binomial_tail(n, p, k_hi - 1, False), p0, 1.0) - p0
    below = np.flatnonzero(np.cumsum(pmf) <= level)  # P(X <= k) <= level
    if two_sided and below.size:  # reject at X <= k_lo, whose chance falls with it
        k_lo = int(below[-1])
        down = p0 - _bisect(lambda p: binomial_tail(n, p, k_lo, False), p0, 0.0)
    return down, up


def _bisect(power, start: float, end: float) -> float:
    """The rate nearest `start`, between start and end, with power(rate) >= POWER,
    for a power that is monotone from start to end and reaches POWER at end."""
    for _ in range(50):  # to within 2^-50 of the rate
        mid = (start + end) / 2.0
        if power(mid) >= POWER:
            end = mid
        else:
            start = mid
    return end


def binomial_test(hits: int, n: int, p0: float, two_sided: bool) -> dict:
    """Exact binomial test of `hits` successes in n runs at rate p0, at criterion
    10's per-test level FAMILY_RATE / _C10_TESTS: two-sided (twice the smaller
    tail, at most 1) or against a higher rate (the upper tail). A rate p0 above
    1, a vacuous bound, is tested at 1."""
    p0 = min(p0, 1.0)
    alpha = FAMILY_RATE / _C10_TESTS
    p_value = binomial_tail(n, p0, hits, True)
    if two_sided:
        p_value = min(1.0, 2.0 * min(p_value, binomial_tail(n, p0, hits, False)))
    return {
        "sides": 2 if two_sided else 1,
        "null_rate": p0,
        "p_value": p_value,
        "pass": p_value > alpha,
        "detects": dict(zip(("down", "up"), _detected_shifts(
            n, p0, alpha / 2.0 if two_sided else alpha, two_sided))),
    }


def criterion_10_commit_tails(seed=0) -> CheckRecord:
    """The honest commit runs' size-abort count matches the exact binomial
    tail and sits under the stated exponential bound; the sampling-agreement
    count matches its exact rate and stays below its claim. Each count is
    judged by an exact binomial test (binomial_test)."""
    started = time.perf_counter()
    results = {}
    ok = True
    for big_n, q in ((40, 0.1), (64, 0.05)):
        sim = onecc.simulate_commit(big_n, q, runs=_C10_RUNS, seed=(seed, 10, big_n))
        exact = binomial_tail(big_n, q, int(math.floor(2.0 * q * big_n)) + 1, True)
        hoeffding = 2.0 * math.exp(-2.0 * q * q * big_n)
        tests = {"exact_tail": binomial_test(sim["aborts_size"], _C10_RUNS, exact, True),
                 "hoeffding_bound": binomial_test(sim["aborts_size"], _C10_RUNS, hoeffding, False)}
        entry_ok = exact <= hoeffding and all(t["pass"] for t in tests.values())
        ok = ok and entry_ok
        results[f"N{big_n}"] = {
            "check_aborts": 0,  # an honest committer never fails a check
            "size_abort_frequency": sim["aborts_size"] / _C10_RUNS,
            "exact_tail": exact,
            "hoeffding_bound": hoeffding,
            "tests": tests,
            "ok": entry_ok,
        }
    mc_runs = 20000
    mc = bcjl.sampling_equivalence_mc(n=16, delta=0.25, mismatches=5, runs=mc_runs,
                                      seed=(seed, 10, 999))
    tests = {"exact": binomial_test(mc["hits"], mc_runs, mc["exact"], True),
             "claim_bound": binomial_test(mc["hits"], mc_runs, mc["claim_bound"], False)}
    sampling_ok = all(t["pass"] for t in tests.values())
    ok = ok and sampling_ok
    results["sampling"] = {**{k: mc[k] for k in ("frequency", "exact", "claim_bound")},
                           "tests": tests, "ok": sampling_ok}
    results["test"] = {"kind": "exact binomial, Bonferroni", "family_wise_rate": FAMILY_RATE,
                       "tests": _C10_TESTS, "alpha": FAMILY_RATE / _C10_TESTS, "power": POWER}
    return timed_record(
        "10-commit-tails", ok, results, None, None, "monte-carlo",
        {"criterion": 10, "runs": _C10_RUNS}, started,
    )


def criterion_11_uc_demos(seed=0) -> CheckRecord:
    """Honest transfer completeness, the rushing-simulator comparison, and
    the exhaustive choice-functionality table."""
    started = time.perf_counter()
    ot = ucsim.honest_ot_completeness(_C11_RUNS, 8, (seed, 11))
    completeness_ok = ot["completed"] > 0 and ot["correct"] == ot["completed"]
    demo_fixed = ucsim.run_simulator_demo(
        "sender", script="fixed-state", runs=_C11_RUNS, n=8, seed=(seed, 11, 1001),
        s0=(0,), s1=(1,), c=1,
    )
    demo_noisy = ucsim.run_simulator_demo(
        "sender", script="random-announce", runs=_C11_RUNS, n=8, seed=(seed, 11, 1002),
        s0=(0,), s1=(1,), c=0,
    )
    expected = [
        {"sender_in": x, "chooser_in": c, "sender_learns": c,
         "chooser_receives": x if c == 1 else None}
        for x in (0, 1) for c in (0, 1)
    ]
    table_ok = ucsim.one_cc_table() == expected
    values = {
        "completed_runs": ot["completed"],
        "correct_runs": ot["correct"],
        "fixed_state_demo": {"pass": demo_fixed["pass"], "max_z": demo_fixed["max_z"]},
        "random_announce_demo": {"pass": demo_noisy["pass"], "max_z": demo_noisy["max_z"]},
        "table_exhaustive": table_ok,
    }
    passed = completeness_ok and demo_fixed["pass"] and demo_noisy["pass"] and table_ok
    return timed_record(
        "11-uc-simulator-demos", passed, values, None, None, "monte-carlo",
        {"criterion": 11, "runs": _C11_RUNS}, started,
    )


def criterion_12_storage_reduction(seed=0) -> CheckRecord:
    """Measured two-sided opening advantage against the square-root
    non-adaptive bound for one stored qubit, via the exact projective optimum."""
    started = time.perf_counter()
    rng = rng_from_seed((seed, 12))
    failures = []
    trials_run = 0
    worst_slack = math.inf
    for k in range(_C12_INSTANCES):
        dim_b = int(rng.choice([4, 6]))
        openings_zero = tuple(
            (f"z{j}", random_projector(dim_b, int(rng.integers(1, dim_b // 2 + 1)), rng))
            for j in range(int(rng.integers(1, 3)))
        )
        openings_one = tuple(
            (f"o{j}", random_projector(dim_b, int(rng.integers(1, dim_b // 2 + 1)), rng))
            for j in range(int(rng.integers(1, 3)))
        )
        scheme = commitments.ProjectiveCommitmentScheme(openings_zero, openings_one)
        rows = commitments.storage_reduction_check(scheme, q=1, trials=3, seed=(seed, 12, k))
        for row in rows:
            trials_run += 1
            worst_slack = min(worst_slack, row["bound"] - row["alpha"])
            if not row["pass"]:
                failures.append({"instance": k, "trial": row["trial"],
                                 "alpha": row["alpha"], "bound": row["bound"]})
    values = {
        "instances": _C12_INSTANCES,
        "trials": trials_run,
        "worst_slack": worst_slack,
        "failures": failures[:10],
    }
    return timed_record(
        "12-storage-reduction", not failures, values, None, worst_slack,
        "closed-form", {"criterion": 12, "instances": _C12_INSTANCES}, started,
    )


ALL_CRITERIA = (
    criterion_01_guessing_constant,
    criterion_02_bell_counterexample,
    criterion_03_random_games,
    criterion_04_measurement_domination,
    criterion_05_norm_lemma,
    criterion_06_cheat_state,
    criterion_07_wrong_opening,
    criterion_08_ball_binding,
    criterion_09_privacy_amplification,
    criterion_10_commit_tails,
    criterion_11_uc_demos,
    criterion_12_storage_reduction,
)


def run_all(seed=0, only: set[int] | None = None) -> ExperimentReport:
    checks = []
    for idx, fn in enumerate(ALL_CRITERIA, start=1):
        if only is not None and idx not in only:
            continue
        checks.append(fn(seed=seed))
    return ExperimentReport(suite="acceptance", seed=seed, checks=checks)
