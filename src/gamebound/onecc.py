"""Commitment from one-out-of-two bit commitment channels: conjugate-coding
states, the basis-guessing value behind hiding, small-support adversary
states behind binding, and a classical simulator of the honest commit phase.

Encoding convention: basis bit 0 is computational, basis bit 1 is diagonal,
so the honest committer sends |0>_theta = (x) H^{theta_i} |0> per position.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coding import (
    LinearCode,
    ball_size,
    binary_entropy,
    bits_to_int,
    coset_members,
    hamming_ball,
    nearest_coset_rep,
)
from .discrimination import (
    CqState,
    DiscriminationInstance,
    SolverCertificate,
    guessing_probability,
    optimal_discrimination,
)
from .errors import InputError
from .hashing import XorHashFamily
from .rand import random_pure_vector, rng_from_seed
from .registers import RegisterShape
from .states import density_from_matrix, zero_entropy

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_KET = {0: np.array([1, 0], dtype=complex), 1: np.array([0, 1], dtype=complex)}


def encoded_vector(bits, theta) -> np.ndarray:
    """|bits>_theta as a 2^n vector (position 0 is the most significant factor)."""
    bits = np.asarray(bits, dtype=np.uint8)
    theta = np.asarray(theta, dtype=np.uint8)
    if bits.shape != theta.shape:
        raise InputError("bits and basis string must have equal length")
    if bits.size > 12:
        raise InputError(f"register of {bits.size} qubits exceeds the cap of 12")
    out = np.array([1.0 + 0j])
    for b, t in zip(bits, theta):
        v = _KET[int(b)]
        if t:
            v = _H @ v
        out = np.kron(out, v)
    return out


GAMMA_TARGET = math.cos(math.pi / 8.0) ** 2


def single_position_guessing(tol: float = 1e-12) -> SolverCertificate:
    """Optimal guess of a uniform basis bit from one encoded qubit."""
    zero = np.outer(_KET[0], _KET[0].conj())
    plus_vec = _H @ _KET[0]
    plus = np.outer(plus_vec, plus_vec.conj())
    shape = RegisterShape((("B", 2),))
    cq = CqState(
        (0, 1),
        (0.5, 0.5),
        (density_from_matrix(shape, zero), density_from_matrix(shape, plus)),
    )
    return guessing_probability(cq, tol=tol)


def _gram(ball0: np.ndarray, ball1: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Inner products <z|_theta0 |z'>_theta1 for z in ball0 and z' in ball1,
    one (|ball0|, |ball1|) matrix per row m = theta0 xor theta1 of `masks`:
    balls of shape (..., |ball0|, n) and (..., |ball1|, n) with masks of
    shape (..., M, n) give (..., M, |ball0|, |ball1|), the leading axes
    broadcast against each other.

    Positions where the bases agree must carry equal bits; each position
    where they differ contributes (-1)^{z_i z'_i} / sqrt(2). The matrices
    therefore depend on the bases only through m.
    """
    masks = np.asarray(masks, dtype=np.int64)
    cols = np.swapaxes(masks, -1, -2)[..., None, :, :]  # (..., 1, n, M)
    differ = (ball0[..., :, None, :] != ball1[..., None, :, :]).astype(np.int64)
    both = (ball0[..., :, None, :] & ball1[..., None, :, :]).astype(np.int64)
    agree = differ @ (1 - cols) == 0
    signs = 1 - 2 * (both @ cols % 2)
    scale = 2.0 ** (-masks.sum(axis=-1) / 2.0)[..., None, None, :]
    return np.moveaxis(np.where(agree, signs * scale, 0.0), -1, -3)


# Largest |ball| * dim A a small-support state may hold (n = 10, dim A = 16).
SMALLSUP_ROWS_CAP = 2**10 * 16


@dataclass(frozen=True)
class SmallSupState:
    """Pure state sum_{y in ball} |W[y]>_A |y>_theta on A (x) register of n
    basis qubits, supported inside the delta-ball around the all-zero string
    in basis theta.

    Row W[y] = alpha_y xi_y of the read-only (|ball|, dim A) array `rows` is
    the A-part paired with ball string y, the same row of `ball`, the cached
    read-only coding.hamming_ball array. Ball states in one basis are
    orthonormal, so the state's norm is the Frobenius norm of `rows`.
    """

    theta: np.ndarray = field(repr=False)
    delta: float
    dim_a: int
    ball: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.theta.size


def _zero_parts(state: SmallSupState, candidates: np.ndarray) -> np.ndarray:
    """v = (I (x) <0|_cand) psi = g_cand W for each row cand of `candidates`,
    as a (len(candidates), dim A) array; g_cand is one _gram row."""
    masks = np.asarray(candidates, dtype=np.uint8) ^ state.theta
    zero = np.zeros((1, state.n), dtype=np.uint8)
    return _gram(zero, state.ball, masks)[:, 0, :] @ state.rows


def sample_smallsup_state(theta, delta: float, dim_a: int, seed=0) -> SmallSupState:
    """Random unit vector sum_{y in ball} alpha_y |xi_y>_A |y>_theta."""
    theta = np.asarray(theta, dtype=np.uint8)
    n = theta.size
    if dim_a < 1 or dim_a > 16:
        raise InputError("dim A must be in [1, 16]")
    if not 0.0 <= delta <= 0.5:
        raise InputError("delta must be in [0, 1/2]")
    radius = math.floor(delta * n)
    entries = ball_size(n, radius) * dim_a
    if entries > SMALLSUP_ROWS_CAP:
        raise InputError(f"|ball| * dim A = {entries} exceeds the cap of {SMALLSUP_ROWS_CAP}")
    rng = rng_from_seed(seed)
    ball = hamming_ball(n, radius)
    amps = rng.normal(size=len(ball)) + 1j * rng.normal(size=len(ball))
    amps /= np.linalg.norm(amps)
    rows = np.array([a * random_pure_vector(dim_a, rng) for a in amps])
    rows /= np.linalg.norm(rows)
    rows.setflags(write=False)
    return SmallSupState(
        theta=theta,
        delta=delta,
        dim_a=dim_a,
        ball=ball,
        rows=rows,
    )


def wrong_opening_bound_check(
    state: SmallSupState, code: LinearCode, s, tol: float = 1e-9
) -> dict:
    """Every syndrome-s basis announcement other than the nearest one is
    accepted with probability at most 2^{-d/2 + n h(delta)}.

    Acceptance of announcement theta'' means the receiver's measurement of the
    basis register in theta'' returns all zeros: ||(I (x) <0|_theta'') psi||^2
    = 2^{-|m|} ||sum_{y : y_S = 0} alpha_y xi_y||^2, with m = theta'' xor
    theta and S the positions where m is 0.
    """
    n = state.n
    if code.n != n:
        raise InputError("code length does not match the state")
    rep = nearest_coset_rep(code, s, state.theta)
    d = code.min_distance()
    bound = 2.0 ** (-d / 2.0 + n * binary_entropy(state.delta))
    members = coset_members(code, s)
    values = np.sum(np.abs(_zero_parts(state, members)) ** 2, axis=1)
    values[np.all(members == rep, axis=1)] = 0.0
    k = int(np.argmax(values))
    worst = float(values[k])
    return {
        "worst_value": worst,
        "worst_theta": tuple(int(b) for b in members[k]) if worst > 0.0 else None,
        "bound": bound,
        "nearest_rep": tuple(int(b) for b in rep),
        "pass": worst <= bound + tol,
    }


def adaptive_wrong_opening(
    state: SmallSupState, code: LinearCode, hash_member: int, s, w: int
) -> dict:
    """POVM-relaxation success of opening the bit OTHER than the extractor's,
    with the chain bound 2^{H0(A)} * (wrong-opening bound). The check passes
    when the certificate's dual, an upper bound on that success, is within
    the chain bound; the primal is the success its POVM reaches."""
    n = state.n
    family = XorHashFamily(n)
    rep = nearest_coset_rep(code, s, state.theta)
    c = family.evaluate(hash_member, bits_to_int(rep)) ^ (w & 1)
    members = coset_members(code, s)
    wrong = members[family.evaluate_rows(hash_member, members) ^ (w & 1) == 1 - c]
    ops = tuple(np.outer(v, v.conj()) for v in _zero_parts(state, wrong))
    rho_a = density_from_matrix(RegisterShape((("A", state.dim_a),)),
                                state.rows.T @ state.rows.conj())
    h0 = zero_entropy(rho_a, "A")
    lemma_bound = 2.0 ** (-code.min_distance() / 2.0 + n * binary_entropy(state.delta))
    chain_bound = (2.0**h0) * lemma_bound
    if not ops:
        return {"extracted": c, "wrong_open_success": 0.0, "wrong_open_dual": 0.0,
                "chain_bound": chain_bound, "pass": True}
    cert = optimal_discrimination(DiscriminationInstance(ops), tol=1e-7)
    return {
        "extracted": c,
        "wrong_open_success": cert.primal_value,
        "wrong_open_dual": cert.dual_value,
        "chain_bound": chain_bound,
        "pass": cert.dual_value <= chain_bound + 1e-6,
    }


# --- round-by-round classical simulation ------------------------------------


# Coins drawn per block: a bound on the memory a long simulation holds at once.
_BLOCK_WORDS = 1 << 18
# Largest N and run count a simulation takes: its tally and criterion 10's
# tails are O(N), and the exact test of its size aborts is O(runs).
COMMIT_SIM_MAX_N = 1 << 16
COMMIT_SIM_MAX_RUNS = 10**6


def simulate_commit(big_n: int, q: float, runs: int, seed=0) -> dict:
    """Classical simulation of the honest committer's commit phase.

    Per position the committer routes (state, basis) into the one-out-of-two
    channel; the receiver checks with probability q and aborts when more
    than 2qN positions are checked. An honest position never fails a check.

    Returns the size-abort count, the number of runs with each check-set
    size 0..N and the Hoeffding bound on the size-abort probability. Run r's
    check coins are row r of `rng_from_seed(seed).random((runs, N))`, drawn a
    block of rows at a time, which is the same stream whatever the block size.
    """
    if not 1 <= big_n <= COMMIT_SIM_MAX_N:
        raise InputError(f"N must be in 1..{COMMIT_SIM_MAX_N}")
    if not 0.0 <= q <= 1.0:
        raise InputError("q must be a probability")
    if not 1 <= runs <= COMMIT_SIM_MAX_RUNS:
        raise InputError(f"runs must be in 1..{COMMIT_SIM_MAX_RUNS}")
    rng = rng_from_seed(seed)
    counts = np.zeros(big_n + 1, dtype=np.int64)
    rows = max(1, _BLOCK_WORDS // big_n)
    for lo in range(0, runs, rows):
        sizes = (rng.random((min(rows, runs - lo), big_n)) < q).sum(axis=1)
        counts += np.bincount(sizes, minlength=big_n + 1)
    return {
        "runs": runs,
        "aborts_size": int(counts[np.arange(big_n + 1) > 2.0 * q * big_n].sum()),
        "size_counts": counts.tolist(),
        "size_abort_bound": 2.0 * math.exp(-2.0 * q * q * big_n),
    }
