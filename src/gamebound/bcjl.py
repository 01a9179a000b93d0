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
    bits_to_int,
    coset_members,
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


def _ball(x, delta: float) -> np.ndarray:
    """The strings within floor(delta n) flips of x, as rows of a bit matrix."""
    x = np.asarray(x, dtype=np.uint8)
    return np.array(hamming_ball_around(x, math.floor(delta * x.size)), dtype=np.uint8)


def overlap_bound_check(x, theta, xp, thetap, delta: float, tol: float = 1e-9) -> dict:
    """||V V'|| <= (max single overlap) * sqrt(|ball| * |ball'|).

    ||V V'|| is the largest singular value of the ball Gram matrix, since
    V and V' project onto orthonormal ball states.
    """
    mask = np.asarray(theta, dtype=np.uint8) ^ np.asarray(thetap, dtype=np.uint8)
    (gram,) = _gram(_ball(x, delta), _ball(xp, delta), mask)
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

    def openings_for(self, bit: int) -> list[np.ndarray]:
        """All x with the right syndrome whose masked hash matches `bit`."""
        family = XorHashFamily(self.n)
        out = []
        for x in coset_members(self.code, np.array(self.syndrome_bits, dtype=np.uint8)):
            if family.evaluate(self.hash_member, bits_to_int(x)) ^ self.masked_bit == bit:
                out.append(x)
        return out


def na_binding(instance: BcjlInstance, budget: int | None = None, seed=0) -> dict:
    """max ||V(x,theta) + V(x',theta')|| over hash-opposite syndrome-consistent
    opening pairs, against the bound 1 + 2^{-d/2 + delta n + h(delta) n}.

    For nonzero projectors ||V + V'|| = 1 + ||V V'|| (Jordan's lemma), and
    ||V V'|| is the largest singular value of the ball Gram matrix, which
    depends on the bases only through theta xor theta'. Without a budget, or
    with one that covers every pair, the search is exhaustive over the
    classes (x, x', theta xor theta'), each standing for the 2^n pairs it
    covers; otherwise `budget` sampled pairs (recorded in the result).
    `pairs_evaluated` counts pairs, not classes. Same-opening pairs never
    appear because the two openings hash to different bits.
    """
    if budget is not None and budget < 1:
        raise InputError("a sampling budget needs at least one pair")
    n = instance.n
    d = instance.code.min_distance()
    bound = 1.0 + 2.0 ** (
        -d / 2.0 + instance.delta * n + binary_entropy(instance.delta) * n
    )
    zeros = instance.openings_for(0)
    ones = instance.openings_for(1)
    if not zeros or not ones:
        return {
            "max_sum": 1.0 if (zeros or ones) else 0.0,
            "bound": bound,
            "pairs_evaluated": 0,
            "exhaustive": True,
            "pass": True,
            "note": "one side has no valid opening; the pair bound is vacuous",
        }
    thetas = list(itertools.product((0, 1), repeat=n))
    total_pairs = len(zeros) * len(ones) * len(thetas) ** 2
    # (index into zeros, index into ones, theta0 per Gram matrix, theta1 per Gram matrix)
    if budget is None or total_pairs <= budget:
        # theta0 = 0...0 represents every theta0 of the class theta1 xor theta0
        batches = [(i, j, [thetas[0]] * len(thetas), thetas)
                   for i in range(len(zeros)) for j in range(len(ones))]
        exhaustive = True
        count = total_pairs
    else:
        rng = rng_from_seed(seed)
        batches = []
        for _ in range(budget):
            i = int(rng.integers(len(zeros)))
            t0 = thetas[rng.integers(len(thetas))]
            j = int(rng.integers(len(ones)))
            t1 = thetas[rng.integers(len(thetas))]
            batches.append((i, j, [t0], [t1]))
        exhaustive = False
        count = budget
    balls0 = [_ball(x, instance.delta) for x in zeros]
    balls1 = [_ball(x, instance.delta) for x in ones]
    max_sum = 0.0
    argmax = None
    overlap_checks_ok = True
    for i, j, t0s, t1s in batches:
        grams = _gram(balls0[i], balls1[j], np.bitwise_xor(t0s, t1s))
        norms = np.linalg.svd(grams, compute_uv=False)[:, 0]
        # overlap bound: ||V V'|| <= max |Gram entry| * |ball|
        peaks = np.max(np.abs(grams), axis=(1, 2)) * grams.shape[1]
        overlap_checks_ok = overlap_checks_ok and bool(np.all(norms <= peaks + 1e-9))
        k = int(np.argmax(norms))
        if 1.0 + norms[k] > max_sum:
            max_sum = 1.0 + float(norms[k])
            argmax = {
                "x0": tuple(int(b) for b in zeros[i]),
                "theta0": t0s[k],
                "x1": tuple(int(b) for b in ones[j]),
                "theta1": t1s[k],
            }
    return {
        "max_sum": max_sum,
        "bound": bound,
        "pairs_evaluated": count,
        "exhaustive": exhaustive,
        "argmax": argmax,
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
    syndrome deduction; at these sizes it exceeds 1 and is flagged vacuous.
    """
    if n > 6:
        raise InputError("exact hiding enumeration capped at n = 6")
    if code.n != n:
        raise InputError("code length must equal n")
    family = XorHashFamily(n)
    h = code.parity_check
    n_syn = n - code.k
    # P(measured = xhat | sent = x) = (3/4)^{agreements} (1/4)^{disagreements}
    strings = list(itertools.product((0, 1), repeat=n))
    p_meas = np.zeros((2**n, 2**n))
    for xi, x in enumerate(strings):
        xa = np.array(x, dtype=np.uint8)
        for mi, m in enumerate(strings):
            ma = np.array(m, dtype=np.uint8)
            dist = int(np.sum(xa != ma))
            p_meas[xi, mi] = (0.75 ** (n - dist)) * (0.25**dist)
    syndromes = {}
    hashes = {}
    for xi, x in enumerate(strings):
        xa = np.array(x, dtype=np.uint8)
        syndromes[xi] = bits_to_int((h @ xa) % 2) if n_syn else 0
        hashes[xi] = [family.evaluate(r, bits_to_int(xa)) for r in range(2**n)]
    by_syndrome: dict[int, list[int]] = {}
    for xi in range(2**n):
        by_syndrome.setdefault(syndromes[xi], []).append(xi)
    distance = 0.0
    norm = 1.0 / (2**n) / (2**n)  # uniform x, uniform hash member
    for r in range(2**n):
        for xs in by_syndrome.values():
            for w in (0, 1):
                p0 = np.zeros(2**n)
                p1 = np.zeros(2**n)
                for xi in xs:
                    if hashes[xi][r] == w:
                        p0 += p_meas[xi]
                    else:
                        p1 += p_meas[xi]
                distance += 0.5 * norm * float(np.sum(np.abs(p0 - p1)))
    gamma = single_position_guessing().primal_value
    hmin_acct = n * math.log2(1.0 / gamma) - n_syn
    bound = 2.0 ** (-(hmin_acct - 1.0) / 2.0)
    return {
        "distance": distance,
        "accounting_bound": bound,
        "vacuous": bound >= 1.0,
        "pass": bound >= 1.0 or distance <= bound + 1e-9,
    }
