import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from gamebound import bcjl, onecc
from gamebound.acceptance import criterion_07_wrong_opening
from gamebound.coding import (
    LinearCode,
    bits_to_int,
    coset_members,
    hamming_ball,
    named_code,
    syndrome,
)
from gamebound.discrimination import CqState, guessing_probability
from gamebound.errors import CapExceededError, InputError
from gamebound.hashing import XorHashFamily, privacy_amp_distance
from gamebound.linalg import partial_trace_matrix
from gamebound.rand import random_pure_vector, rng_from_seed
from gamebound.registers import shape
from gamebound.states import density_from_matrix
from gamebound.onecc import (
    GAMMA_TARGET,
    adaptive_wrong_opening,
    encoded_vector,
    sample_smallsup_state,
    simulate_commit,
    single_position_guessing,
    wrong_opening_bound_check,
)

GAMMA = math.cos(math.pi / 8.0) ** 2


def test_encoded_vector_unit_norm():
    v = encoded_vector((0, 1, 1), (1, 0, 1))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_encoded_vector_overlap_per_basis_mismatch():
    """|<x,theta|x,theta'>| = (1/sqrt2)^(basis mismatches) at equal payloads."""
    x = (0, 1, 0)
    for theta, theta_p, mism in (
        ((0, 0, 0), (0, 0, 0), 0),
        ((0, 0, 0), (1, 0, 0), 1),
        ((0, 0, 0), (1, 0, 1), 2),
        ((1, 1, 1), (0, 0, 0), 3),
    ):
        ov = abs(np.vdot(encoded_vector(x, theta), encoded_vector(x, theta_p)))
        assert ov == pytest.approx((2**-0.5) ** mism, abs=1e-12)


def test_encoded_vector_cap():
    with pytest.raises(InputError):
        encoded_vector((0,) * 13, (0,) * 13)


def test_single_position_guessing_constant():
    cert = single_position_guessing()
    assert cert.primal_value == pytest.approx(GAMMA, abs=1e-9)
    assert cert.primal_value == pytest.approx(GAMMA_TARGET, abs=1e-9)
    assert cert.gap <= 1e-9


def test_multi_position_guessing_is_power_of_gamma():
    # joint guess of n uniform basis bits from |0...0>_theta: gamma^n
    for big_n in (1, 2, 3):
        thetas = list(itertools.product((0, 1), repeat=big_n))
        conditionals = tuple(
            density_from_matrix(shape(("B", 2**big_n)), np.outer(v, v.conj()))
            for v in (encoded_vector((0,) * big_n, theta) for theta in thetas))
        cq = CqState(tuple(range(len(thetas))), (1.0 / len(thetas),) * len(thetas), conditionals)
        cert = guessing_probability(cq, tol=1e-9)
        assert cert.primal_value == pytest.approx(GAMMA**big_n, abs=1e-7)
        assert cert.gap <= 1e-6


def test_sample_smallsup_state_support_and_determinism():
    theta = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
    a = sample_smallsup_state(theta, 1.0 / 7.0, 2, seed=11)
    b = sample_smallsup_state(theta, 1.0 / 7.0, 2, seed=11)
    np.testing.assert_array_equal(a.rows, b.rows)
    assert len(a.ball) == 8  # radius-1 ball on 7 positions
    assert a.rows.shape == (8, 2)
    assert not a.rows.flags.writeable
    # ball states are orthonormal, so the state's norm is that of the rows
    assert np.linalg.norm(a.rows) == pytest.approx(1.0, abs=1e-12)
    # payload support sits within the ball around the honest all-zero string
    assert all(sum(member) <= 1 for member in a.ball)
    # the draws: all amplitudes first, then one A vector per ball member
    rng = rng_from_seed(11)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    want = np.array([amp * random_pure_vector(2, rng) for amp in amps])
    np.testing.assert_allclose(a.rows, want / np.linalg.norm(want), atol=1e-15)


def _dense_state(state) -> np.ndarray:
    """sum_y W[y] (x) |y>_theta as a (dim A, 2^n) matrix, from encoded_vector."""
    return sum(np.outer(w, encoded_vector(y, state.theta))
               for w, y in zip(state.rows, state.ball))


@pytest.mark.parametrize("name", ["rep31", "rep41", "hamming74"])
@pytest.mark.parametrize("radius", [0, 1])
def test_rows_match_dense_reference(name, radius, monkeypatch):
    """Acceptances and adaptive operators from the rows equal the dense
    2^n computation they replace, for every syndrome."""
    code = named_code(name)
    n = code.n
    rng = rng_from_seed((31, n, radius))
    state = sample_smallsup_state(rng.integers(0, 2, size=n), radius / n, 2, seed=rng)
    psi = _dense_state(state)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    rho = np.outer(psi.reshape(-1), psi.reshape(-1).conj())
    seen = []
    solve = onecc.optimal_discrimination
    monkeypatch.setattr(onecc, "optimal_discrimination",
                        lambda inst, tol: seen.append(inst.operators) or solve(inst, tol=tol))
    family = XorHashFamily(n)
    for s in itertools.product((0, 1), repeat=n - code.k):
        members = coset_members(code, s)
        zeros = [encoded_vector(np.zeros(n, dtype=np.uint8), cand) for cand in members]
        dense = np.array([np.linalg.norm(psi @ z) ** 2 for z in zeros])
        rows = np.sum(np.abs(onecc._zero_parts(state, members)) ** 2, axis=1)
        np.testing.assert_allclose(rows, dense, rtol=0, atol=1e-12)
        chk = wrong_opening_bound_check(state, code, s)
        others = [tuple(cand) != chk["nearest_rep"] for cand in members]
        assert chk["worst_value"] == pytest.approx(dense[others].max(), abs=1e-12)

        member = int(rng.integers(0, 2**n))
        out = adaptive_wrong_opening(state, code, member, s, 0)
        wrong = [family.evaluate(member, bits_to_int(cand)) ^ out["extracted"] == 1
                 for cand in members]
        want = [partial_trace_matrix(np.kron(np.eye(2), np.outer(z, z)) @ rho,
                                     (2, 2**n), (0,))
                for z, bad in zip(zeros, wrong) if bad]
        got = seen.pop() if want else ()
        assert len(got) == len(want)
        for op, ref in zip(got, want):
            np.testing.assert_allclose(op, ref, rtol=0, atol=1e-12)
    assert not seen


def _rm15() -> LinearCode:
    """Reed-Muller RM(1,5) = [32, 6, 16]: the all-ones row and the five
    coordinate-bit rows."""
    cols = np.arange(32)
    bits = (cols[None, :] >> np.arange(5)[:, None]) & 1
    return LinearCode(np.vstack([np.ones(32, dtype=np.uint8), bits]).astype(np.uint8))


def test_rm15_wrong_opening_exhaustive_and_non_vacuous():
    """At [32,6,16], delta = 1/32 the 33-string ball makes both bounds
    non-vacuous. The lemma check covers all 64 coset members; the hash
    members r = e_0, e_1, e_2, e_4, e_8, e_16 put each non-nearest member on
    the wrong side at least once, since every nonzero RM(1,5) codeword is 1
    at one of those positions."""
    code = _rm15()
    assert (code.n, code.k, code.min_distance()) == (32, 6, 16)
    rng = rng_from_seed(32)
    theta = rng.integers(0, 2, size=32).astype(np.uint8)
    s = rng.integers(0, 2, size=26).astype(np.uint8)
    started = time.perf_counter()
    state = sample_smallsup_state(theta, 1.0 / 32.0, 2, seed=rng)
    chk = wrong_opening_bound_check(state, code, s)
    family = XorHashFamily(32)
    members = coset_members(code, s)
    covered = np.zeros(len(members), dtype=bool)
    for pos in (0, 1, 2, 4, 8, 16):
        r = 1 << (31 - pos)
        out = adaptive_wrong_opening(state, code, r, s, 1)
        assert out["pass"]
        assert out["chain_bound"] < 1.0
        covered |= [family.evaluate(r, bits_to_int(cand)) ^ 1 != out["extracted"]
                    for cand in members]
    elapsed = time.perf_counter() - started
    assert len(state.ball) == 33
    assert chk["bound"] == pytest.approx(0.334, abs=5e-4)
    assert chk["pass"] and chk["worst_value"] < chk["bound"]
    assert covered.sum() == 63  # every member but the nearest one
    assert elapsed < 1.0


def test_criterion_07_builds_no_dense_state(monkeypatch):
    """The criterion runs on ball rows alone: no 2^n vector or verifier."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense 2^n construction on the criterion path")

    monkeypatch.setattr(onecc, "encoded_vector", refuse)
    monkeypatch.setattr(bcjl, "ball_verifier", refuse)
    assert criterion_07_wrong_opening(seed=0).passed


_ONE_SYMBOL_CQ = CqState((0,), (1.0,), (density_from_matrix(shape(("E", 1)), np.eye(1)),))


@pytest.mark.parametrize("build", [
    lambda: hamming_ball(17, 17),  # 2^17 strings
    lambda: LinearCode(np.eye(21, dtype=np.uint8)).codewords(),  # 2^21 words
    lambda: privacy_amp_distance(_ONE_SYMBOL_CQ, 21),  # 2^21 members
    lambda: len(XorHashFamily(21)),
    lambda: sample_smallsup_state(np.zeros(14), 0.5, 2),  # 9,908 rows of dim 2
])
def test_enumeration_caps_reject_before_allocating(build):
    """Each size cap raises before its enumeration allocates anything."""
    tracemalloc.start()
    try:
        with pytest.raises(InputError):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_wrong_opening_equality_on_distance_two_coset():
    """Support on one basis string, target coset at Hamming distance two:
    acceptance hits 2^(-d/2) exactly."""
    code = named_code("rep41")
    st = sample_smallsup_state(np.zeros(4, dtype=np.uint8), 0.0, 1, seed=4)
    chk = wrong_opening_bound_check(st, code, np.array([1, 1, 0], dtype=np.uint8))
    assert chk["pass"]
    assert chk["bound"] == pytest.approx(0.25, abs=1e-12)
    assert chk["worst_value"] == pytest.approx(0.25, abs=1e-9)
    near = np.array(chk["nearest_rep"], dtype=np.uint8)
    np.testing.assert_array_equal(syndrome(code, near),
                                  np.array([1, 1, 0], dtype=np.uint8))


def test_wrong_opening_bound_on_sampled_states():
    code = named_code("hamming74")
    rng = np.random.default_rng(12)
    for k in range(10):
        theta = rng.integers(0, 2, size=7).astype(np.uint8)
        s = rng.integers(0, 2, size=3).astype(np.uint8)
        st = sample_smallsup_state(theta, 1.0 / 7.0, 2, seed=(12, k))
        chk = wrong_opening_bound_check(st, code, s)
        assert chk["pass"]
        assert chk["worst_value"] <= chk["bound"] + 1e-9


def test_adaptive_wrong_opening_chain():
    code = named_code("hamming74")
    st = sample_smallsup_state(np.ones(7, dtype=np.uint8), 1.0 / 7.0, 2, seed=13)
    out = adaptive_wrong_opening(code=code, state=st, hash_member=19,
                                 s=np.array([0, 1, 0], dtype=np.uint8), w=1)
    assert out["extracted"] in (0, 1)
    assert out["wrong_open_success"] <= out["chain_bound"] + 1e-6
    assert out["pass"]


def test_chain_check_reads_the_dual(monkeypatch):
    """The chain check compares the certificate's dual, the upper side, with
    the chain bound: a certificate whose primal is within the bound but whose
    dual is not fails, in adaptive_wrong_opening and in criterion 07."""
    code = named_code("hamming74")
    st = sample_smallsup_state(np.ones(7, dtype=np.uint8), 1.0 / 7.0, 2, seed=13)
    s = np.array([0, 1, 0], dtype=np.uint8)
    bound = adaptive_wrong_opening(st, code, 19, s, 1)["chain_bound"]
    solve = onecc.optimal_discrimination
    monkeypatch.setattr(onecc, "optimal_discrimination", lambda inst, tol: dataclasses.replace(
        solve(inst, tol=tol), primal_value=bound - 0.5, dual_value=bound + 0.5))
    out = adaptive_wrong_opening(st, code, 19, s, 1)
    assert (out["wrong_open_success"], out["wrong_open_dual"]) == (bound - 0.5, bound + 0.5)
    assert not out["pass"]
    rec = criterion_07_wrong_opening(seed=0, samples=1)
    assert not rec.passed
    assert rec.values["failures"] == [{"sample": 0, "kind": "chain-bound"}]


@pytest.mark.parametrize("runs", [0, -5])
def test_simulate_commit_rejects_non_positive_runs(runs):
    with pytest.raises(InputError):
        simulate_commit(10, 0.2, runs=runs)


@pytest.mark.parametrize("big_n, q", [(0, 0.2), (-3, 0.2), (10, -0.1), (10, 1.5)])
def test_simulate_commit_rejects_bad_parameters(big_n, q):
    with pytest.raises(InputError):
        simulate_commit(big_n, q, runs=1)


def test_simulate_commit_honest_never_fails_checks():
    """An honest committer's only aborts are check sets larger than 2qN."""
    sim = simulate_commit(30, 0.15, runs=300, seed=15)
    assert sim["runs"] == 300
    assert len(sim["check_set_sizes"]) == 300
    assert sim["aborts_size"] == sum(size > 2.0 * 0.15 * 30 for size in sim["check_set_sizes"])
    assert sim["size_abort_bound"] == pytest.approx(
        2.0 * math.exp(-2.0 * 0.15**2 * 30), rel=1e-12)


def _simulate_commit_loop(big_n, q, runs, seed):
    """Per-run, per-position reference for simulate_commit: the bases, one
    scalar check coin per position, and a hash member for every accepted run
    when N <= 20."""
    rng = rng_from_seed(seed)
    out = {"runs": runs, "aborts_size": 0, "check_set_sizes": [],
           "size_abort_bound": 2.0 * math.exp(-2.0 * q * q * big_n)}
    for _ in range(runs):
        rng.integers(0, 2, size=big_n, dtype=np.uint8)
        size = sum(rng.random() < q for _ in range(big_n))
        out["check_set_sizes"].append(size)
        if size > 2.0 * q * big_n:
            out["aborts_size"] += 1
        elif big_n <= 20:
            rng.integers(0, 2**big_n)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3], ids=lambda seed: f"{seed}-honest")
def test_simulate_commit_matches_loop_reference(seed):
    """The result equals the per-position loop's, so the raw block is read as
    the stream is drawn: N = 1-8 cover every count of bases (ceil(N/4) odd and
    even), N = 13 and 20 the hash member drawn at N <= 20, N = 21 the first N
    without it, and q = 0 and 1 runs that never and always check."""
    for big_n, q in itertools.product([*range(1, 9), 13, 20, 21, 40, 64, 65],
                                      (0.0, 0.05, 0.3, 1.0)):
        args = (big_n, q, 60, (seed, big_n))
        assert simulate_commit(*args) == _simulate_commit_loop(*args), (big_n, q)
    for big_n, q in ((7, 0.4), (20, 0.3), (40, 0.1)):
        args = (big_n, q, 60, (seed, big_n))
        assert simulate_commit(*args) == _simulate_commit_loop(*args)


@pytest.mark.parametrize("big_n, q", [(1, 0.3), (3, 0.45), (20, 0.3), (40, 0.1), (65, 0.05)])
def test_simulate_commit_reads_blocks_in_turn(monkeypatch, big_n, q):
    """A simulation read in blocks of a few runs, each block's coins counted on
    from the last, gives the one-block result."""
    want = _simulate_commit_loop(big_n, q, 300, 5)
    assert simulate_commit(big_n, q, 300, 5) == want
    monkeypatch.setattr(onecc, "_BLOCK_WORDS", 3 * big_n)
    assert simulate_commit(big_n, q, 300, 5) == want


def test_simulate_commit_refuses_a_generator():
    """A generator's place in its stream is its owner's: it is refused, and
    left where it was."""
    rng = rng_from_seed(3)
    rng.integers(0, 2**5)  # leaves a kept half, which the loop would read first
    state = rng.bit_generator.state
    for seed in (rng, rng.bit_generator):
        with pytest.raises(InputError, match="not a generator"):
            simulate_commit(10, 0.2, runs=5, seed=seed)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sampling_equivalence_matches_loop_reference(seed):
    """One (runs, n) draw is the stream of one random(n) call per run."""
    rng = rng_from_seed(seed)
    hits = sum(not np.any((rng.random(16) < 0.5)[:5]) for _ in range(3000))
    res = bcjl.sampling_equivalence_mc(n=16, delta=0.25, mismatches=5, runs=3000, seed=seed)
    assert res["hits"] == hits
    assert res["frequency"] == hits / 3000
