"""Conjugate-coding commitment with ball verification: the receiver accepts an
announced (x, theta) iff measuring in theta lands within the delta-ball of x.

Verification projector: V(x, theta) = sum_{z in B^delta(x)} |z>_theta <z|_theta.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coding import (
    LinearCode,
    binary_entropy,
    coset_members,
    hamming_ball,
    hamming_ball_around,
)
from .errors import InputError
from .hashing import XorHashFamily
from .linalg import hermitize, spectral_norm
from .onecc import _gram, encoded_vector, single_position_guessing
from .rand import rng_from_seed


def ball_verifier(x, theta, delta: float) -> np.ndarray:
    """V(x, theta): rank = |B^delta(x)|, exact projector."""
    x = np.asarray(x, dtype=np.uint8)
    theta = np.asarray(theta, dtype=np.uint8)
    if x.shape != theta.shape:
        raise InputError("x and theta must have equal length")
    n = x.size
    if n > 10:
        raise InputError("verifier construction capped at n = 10")
    if not 0.0 <= delta <= 0.5:
        raise InputError("delta must be in [0, 1/2]")
    radius = math.floor(delta * n)
    dim = 2**n
    v = np.zeros((dim, dim), dtype=complex)
    for z in hamming_ball_around(x, radius):
        col = encoded_vector(z, theta)
        v += np.outer(col, col.conj())
    return hermitize(v)


def overlap_bound_check(x, theta, xp, thetap, delta: float, tol: float = 1e-9) -> dict:
    """||V V'|| <= (max single overlap) * sqrt(|ball| * |ball'|).

    ||V V'|| is the largest singular value of the ball Gram matrix, since
    V and V' project onto orthonormal ball states. The check cannot fail:
    every matrix G has ||G|| <= sqrt(rows * cols) * max |G_ij|.
    """
    x = np.asarray(x, dtype=np.uint8)
    radius = math.floor(delta * x.size)
    mask = np.asarray(theta, dtype=np.uint8) ^ np.asarray(thetap, dtype=np.uint8)
    (gram,) = _gram(hamming_ball_around(x, radius), hamming_ball_around(xp, radius), mask[None])
    lhs = spectral_norm(gram)
    rhs = float(np.max(np.abs(gram))) * gram.shape[0]
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs + tol}


@dataclass(frozen=True)
class BcjlInstance:
    """Public transcript pieces the openings must be consistent with."""

    code: LinearCode
    delta: float
    hash_member: int
    syndrome_bits: tuple[int, ...]
    masked_bit: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 0.5:
            raise InputError("delta must be in [0, 1/2]")
        if len(self.syndrome_bits) != self.code.n - self.code.k:
            raise InputError("syndrome length does not match the code")
        if self.masked_bit not in (0, 1):
            raise InputError("masked bit must be 0 or 1")
        if not 0 <= self.hash_member < 2**self.code.n:
            raise InputError("hash member out of range")

    @property
    def n(self) -> int:
        return self.code.n

    def openings(self) -> tuple[np.ndarray, np.ndarray]:
        """The syndrome-consistent strings whose masked hash is 0, and those
        whose masked hash is 1, as two bit matrices in coset order."""
        members = coset_members(self.code, np.array(self.syndrome_bits, dtype=np.uint8))
        hashed = XorHashFamily(self.n).evaluate_rows(self.hash_member, members)
        return members[hashed == self.masked_bit], members[hashed != self.masked_bit]

    def openings_for(self, bit: int) -> list[np.ndarray]:
        """All x with the right syndrome whose masked hash matches `bit`."""
        return list(self.openings()[bit])


def _theta_bits(index: np.ndarray, n: int) -> np.ndarray:
    """Basis strings from their indices in [0, 2^n), most significant bit
    first: index t is the t-th string of itertools.product((0, 1), repeat=n)."""
    return (index[..., None] >> np.arange(n - 1, -1, -1)) & 1


def na_binding(instance: BcjlInstance, budget: int | None = None, seed=0) -> dict:
    """max ||V(x,theta) + V(x',theta')|| over hash-opposite syndrome-consistent
    opening pairs, against the bound 1 + 2^{-d/2 + delta n + h(delta) n}.

    For nonzero projectors ||V + V'|| = 1 + ||V V'|| (Jordan's lemma), and
    ||V V'|| is the largest singular value of the ball Gram matrix, which
    depends on the bases only through theta xor theta'. Without a budget, or
    with one that covers every pair, the search is exhaustive over the
    classes (x, x', theta xor theta'), each standing for the 2^n pairs it
    covers; otherwise `budget` sampled pairs (recorded in the result), each
    drawn as (i, theta0, j, theta1) with theta an index in [0, 2^n), so a
    seed replays the same pairs. Every evaluated Gram matrix is normed in one
    stacked svd. `pairs_evaluated` counts pairs, not classes. Same-opening
    pairs never appear because the two openings hash to different bits.

    `overlap_bound_ok` checks ||V V'|| <= max |Gram entry| * |ball| on every
    evaluated pair. It is a tautology, kept as a record: every Gram matrix G
    has ||G|| <= sqrt(|B0| |B1|) * max |G_ij|.
    """
    if budget is not None and budget < 1:
        raise InputError("a sampling budget needs at least one pair")
    n = instance.n
    d = instance.code.min_distance()
    bound = 1.0 + 2.0 ** (
        -d / 2.0 + instance.delta * n + binary_entropy(instance.delta) * n
    )
    zeros, ones = instance.openings()
    if not len(zeros) or not len(ones):
        return {
            "max_sum": 1.0 if (len(zeros) or len(ones)) else 0.0,
            "bound": bound,
            "pairs_evaluated": 0,
            "exhaustive": True,
            "pass": True,
            "note": "one side has no valid opening; the pair bound is vacuous",
        }
    total_pairs = len(zeros) * len(ones) * 4**n
    pattern = hamming_ball(n, math.floor(instance.delta * n))
    balls0 = zeros[:, None, :] ^ pattern
    balls1 = ones[:, None, :] ^ pattern
    # Per batch: index into zeros, index into ones; per Gram matrix of a
    # batch: the indices of theta0 and theta1.
    exhaustive = budget is None or total_pairs <= budget
    if exhaustive:
        # theta0 = 0...0 represents every theta0 of the class theta1 xor theta0
        i, j = np.divmod(np.arange(len(zeros) * len(ones)), len(ones))
        t1 = np.broadcast_to(np.arange(2**n), (i.size, 2**n))
        t0 = np.zeros_like(t1)
        grams = _gram(balls0[:, None], balls1[None], _theta_bits(t1[0], n))
        count = total_pairs
    else:
        rng = rng_from_seed(seed)
        i, t0, j, t1 = np.array([
            [rng.integers(len(zeros)), rng.integers(2**n),
             rng.integers(len(ones)), rng.integers(2**n)]
            for _ in range(budget)
        ]).T
        grams = _gram(balls0[i], balls1[j], _theta_bits(t0 ^ t1, n)[:, None])
        t0, t1 = t0[:, None], t1[:, None]
        count = budget
    norms = np.linalg.svd(grams, compute_uv=False)[..., 0]
    # overlap bound: ||V V'|| <= max |Gram entry| * |ball|
    peaks = np.max(np.abs(grams), axis=(-2, -1)) * grams.shape[-2]
    overlap_checks_ok = bool(np.all(norms <= peaks + 1e-9))
    # The first batch whose 1 + norm is largest, and its first largest norm:
    # the pair a loop over batches keeping each strictly larger sum picks.
    norms = norms.reshape(i.size, -1)
    b = int(np.argmax(1.0 + norms.max(axis=1)))
    k = int(np.argmax(norms[b]))
    max_sum = 1.0 + float(norms[b, k])
    return {
        "max_sum": max_sum,
        "bound": bound,
        "pairs_evaluated": count,
        "exhaustive": exhaustive,
        "argmax": {
            "x0": tuple(zeros[i[b]].tolist()),
            "theta0": tuple(_theta_bits(t0[b, k], n).tolist()),
            "x1": tuple(ones[j[b]].tolist()),
            "theta1": tuple(_theta_bits(t1[b, k], n).tolist()),
        },
        "overlap_bound_ok": overlap_checks_ok,
        "pass": max_sum <= bound + 1e-9,
    }


def sampling_equivalence_mc(
    n: int, delta: float, mismatches: int, runs: int, seed=0
) -> dict:
    """Monte Carlo for: when the true and measured strings differ in more than
    delta*n positions, all matched-basis positions agree only with probability
    <= 2^{-delta n} (exactly 2^{-mismatches}, since each mismatched position
    must fall in the unmatched-basis half). Returns the hit count of `runs`
    runs, its frequency, the exact rate and the claimed bound; callers judge
    the count with an exact binomial test.
    """
    if mismatches < 0 or mismatches > n:
        raise InputError("mismatch count outside [0, n]")
    # Basis agreement per position is an independent fair coin; row r holds
    # run r's coins, the same draws as one random(n) call per run.
    agree = rng_from_seed(seed).random((runs, n)) < 0.5
    # event: every mismatched position has disagreeing bases
    hits = int(np.count_nonzero(~agree[:, :mismatches].any(axis=1)))
    return {
        "hits": hits,
        "frequency": hits / runs,
        "exact": 2.0 ** (-mismatches),
        "claim_bound": 2.0 ** (-delta * n),
    }


def hiding_distance_exact(n: int, code: LinearCode) -> dict:
    """Exact statistical distance between the measured receiver's classical
    views for committed bit 0 versus 1, by full enumeration (n <= 6).

    The receiver's measurement basis choice is independent of the rest of the
    view once the committer's basis is averaged out, so the distance is over
    (measured string, hash member, syndrome, masked bit).

    The accounting bound uses the per-position guessing value and the
    syndrome deduction; at these sizes it exceeds 1 and is flagged vacuous,
    except for a code with no syndrome bits at n >= 5 (n = k = 6 gives 0.879).
    """
    if n > 6:
        raise InputError("exact hiding enumeration capped at n = 6")
    if code.n != n:
        raise InputError("code length must equal n")
    n_syn = n - code.k
    strings = np.array(list(itertools.product((0, 1), repeat=n)))  # row i: the bits of i
    # P(measured = xhat | sent = x) = (3/4)^{agreements} (1/4)^{disagreements}
    dist = (strings[:, None, :] != strings[None, :, :]).sum(axis=2)
    p_meas = 0.75 ** (n - dist) * 0.25**dist
    # For member r and syndrome class s, bit 0's and bit 1's views differ by
    # (-1)^w sum_{x in s} (-1)^{<r, x>} P(.|x): one norm for both masked bits w,
    # each view weighted 1/2^n (uniform x) times 1/2^n (uniform member).
    signs = 1.0 - 2.0 * (strings @ strings.T % 2)
    syndromes = (strings @ code.parity_check.T % 2) @ (1 << np.arange(n_syn))
    classes = np.arange(2**n_syn)[:, None] == syndromes[None, :]
    distance = float(np.abs(np.einsum("rx,sx,xm->rsm", signs, classes, p_meas)).sum()) / 4**n
    gamma = single_position_guessing().primal_value
    hmin_acct = n * math.log2(1.0 / gamma) - n_syn
    bound = 2.0 ** (-(hmin_acct - 1.0) / 2.0)
    return {
        "distance": distance,
        "accounting_bound": bound,
        "vacuous": bound >= 1.0,
        "pass": bound >= 1.0 or distance <= bound + 1e-9,
    }
