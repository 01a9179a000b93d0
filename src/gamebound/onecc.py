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
    one (|ball0|, |ball1|) matrix per row m = theta0 xor theta1 of `masks`.

    Positions where the bases agree must carry equal bits; each position
    where they differ contributes (-1)^{z_i z'_i} / sqrt(2). The matrices
    therefore depend on the bases only through m.
    """
    masks = np.asarray(masks, dtype=np.int64).reshape(-1, ball0.shape[1])
    differ = (ball0[:, None, :] != ball1[None, :, :]).astype(np.int64)
    both = (ball0[:, None, :] & ball1[None, :, :]).astype(np.int64)
    agree = differ @ (1 - masks).T == 0
    signs = 1 - 2 * (both @ masks.T % 2)
    scale = 2.0 ** (-masks.sum(axis=1) / 2.0)
    return np.moveaxis(np.where(agree, signs * scale, 0.0), -1, 0)


# Largest |ball| * dim A a small-support state may hold (n = 10, dim A = 16).
SMALLSUP_ROWS_CAP = 2**10 * 16


@dataclass(frozen=True)
class SmallSupState:
    """Pure state sum_{y in ball} |W[y]>_A |y>_theta on A (x) register of n
    basis qubits, supported inside the delta-ball around the all-zero string
    in basis theta.

    Row W[y] = alpha_y xi_y of the read-only (|ball|, dim A) array `rows` is
    the A-part paired with ball string y. Ball states in one basis are
    orthonormal, so the state's norm is the Frobenius norm of `rows`.
    """

    theta: np.ndarray = field(repr=False)
    delta: float
    dim_a: int
    ball: tuple[tuple[int, ...], ...]
    rows: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.theta.size


def _zero_parts(state: SmallSupState, candidates: np.ndarray) -> np.ndarray:
    """v = (I (x) <0|_cand) psi = g_cand W for each row cand of `candidates`,
    as a (len(candidates), dim A) array; g_cand is one _gram row."""
    masks = np.asarray(candidates, dtype=np.uint8) ^ state.theta
    zero = np.zeros((1, state.n), dtype=np.uint8)
    return _gram(zero, np.array(state.ball, dtype=np.uint8), masks)[:, 0, :] @ state.rows


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
        ball=tuple(tuple(int(b) for b in y) for y in ball),
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
    state: SmallSupState, code: LinearCode, hash_member: int, s, w: int,
    tol: float = 1e-7,
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
    wrong = members[[family.evaluate(hash_member, bits_to_int(x)) ^ (w & 1) == 1 - c
                     for x in members]]
    ops = tuple(np.outer(v, v.conj()) for v in _zero_parts(state, wrong))
    rho_a = density_from_matrix(RegisterShape((("A", state.dim_a),)),
                                state.rows.T @ state.rows.conj())
    h0 = zero_entropy(rho_a, "A")
    lemma_bound = 2.0 ** (-code.min_distance() / 2.0 + n * binary_entropy(state.delta))
    chain_bound = (2.0**h0) * lemma_bound
    if not ops:
        return {"extracted": c, "wrong_open_success": 0.0, "wrong_open_dual": 0.0,
                "chain_bound": chain_bound, "pass": True}
    cert = optimal_discrimination(DiscriminationInstance(ops), tol=tol)
    return {
        "extracted": c,
        "wrong_open_success": cert.primal_value,
        "wrong_open_dual": cert.dual_value,
        "chain_bound": chain_bound,
        "pass": cert.dual_value <= chain_bound + 1e-6,
    }


# --- round-by-round classical simulation ------------------------------------


# Raw words read per block: a bound on the memory a long simulation holds at once.
_BLOCK_WORDS = 1 << 18


def simulate_commit(big_n: int, q: float, runs: int, seed=0) -> dict:
    """Classical simulation of the honest committer's commit phase.

    Per position the committer routes (state, basis) into the one-out-of-two
    channel; the receiver checks with probability q and aborts when more
    than 2qN positions are checked. An honest position never fails a check.

    Returns the size-abort count, the exact per-run tally of checked
    positions and the Hoeffding bound on the size-abort probability.

    The runs are those of a loop that draws from `default_rng(seed)`, per
    run, N uint8 bases, N doubles as check coins and, for N <= 20, an
    accepted run's hash member below 2^N; they are read from raw PCG64
    blocks by the rules of `tapes.Tape`. Four uint8 draws come from one
    uint32 draw, so the bases take ceil(N/4) uint32 halves, a kept one
    first; each coin takes a word and passes a kept half by; the hash member
    takes one half. Run r's coins thus start at word
    r N + ceil(((r + 1) ceil(N/4) + h_r) / 2), h_r the hash members drawn
    before it, and its tally is a difference of one cumulative count of
    coins below q. A Generator is refused: its place in its own stream is
    not this function's to move.
    """
    if big_n < 1:
        raise InputError("N must be positive")
    if not 0.0 <= q <= 1.0:
        raise InputError("q must be a probability")
    if runs < 1:
        raise InputError("a simulation needs at least one run")
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        raise InputError("simulate_commit reads its own stream: pass a seed, not a generator")
    bits = rng_from_seed(seed).bit_generator
    draws = (big_n + 3) // 4  # uint32 draws for one run's bases
    cutoff = 2.0 * q * big_n
    sizes, hashes = [], 0
    tally, first = np.zeros(1, dtype=np.int64), 0  # coins below q before word first + i
    chunk = max(1, _BLOCK_WORDS // (big_n + draws))
    for lo in range(0, runs, chunk):
        hi = min(lo + chunk, runs)
        # enough words for run hi - 1's coins and run hi's start, whatever the hash count
        words = hi * big_n + ((hi + 1) * (draws + 1) + 1) // 2 - (first + len(tally) - 1)
        coins = (bits.random_raw(words) >> 11) * 2.0**-53 < q
        tally = np.concatenate([tally, tally[-1] + np.cumsum(coins)])
        if big_n > 20:  # no hash member is drawn, so every start is known at once
            start = np.arange(lo, hi) * big_n + (np.arange(lo + 1, hi + 1) * draws + 1) // 2
            sizes += (tally[start + big_n - first] - tally[start - first]).tolist()
        else:
            counts = tally.tolist()
            for r in range(lo, hi):
                start = r * big_n + ((r + 1) * draws + hashes + 1) // 2 - first
                sizes.append(counts[start + big_n] - counts[start])
                hashes += sizes[-1] <= cutoff
        nxt = hi * big_n + ((hi + 1) * draws + hashes + 1) // 2
        tally, first = tally[nxt - first:], nxt
    return {
        "runs": runs,
        "aborts_size": sum(size > cutoff for size in sizes),
        "check_set_sizes": sizes,
        "size_abort_bound": 2.0 * math.exp(-2.0 * q * q * big_n),
    }
