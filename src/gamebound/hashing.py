"""XOR-inner-product hashing and the privacy-amplification distance check.

The family is g_r(x) = <r, x> mod 2 over all r in {0,1}^n, including r = 0
(the constant member). For x != y exactly half the members collide, which is
the two-universal property used throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrimination import CqState, guessing_probability
from .errors import InputError
from .linalg import hermitize

MEMBERS_N_CAP = 20


@dataclass(frozen=True)
class XorHashFamily:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError(f"hash input length {self.n} is not positive")

    def __len__(self) -> int:
        if self.n > MEMBERS_N_CAP:
            raise InputError(f"enumerating 2^{self.n} hash members exceeds the cap "
                             f"n <= {MEMBERS_N_CAP}")
        return 2**self.n

    def evaluate(self, r: int, x: int) -> int:
        if not 0 <= r < 2**self.n or not 0 <= x < 2**self.n:
            raise InputError("hash member or input out of range")
        return bin(r & x).count("1") % 2

    def evaluate_rows(self, r: int, rows: np.ndarray) -> np.ndarray:
        """evaluate(r, x) for each row of a bit matrix, the row read most
        significant bit first as `coding.bits_to_int` reads it."""
        if not 0 <= r < 2**self.n:
            raise InputError("hash member out of range")
        r_bits = np.array([(r >> (self.n - 1 - i)) & 1 for i in range(self.n)])
        return np.asarray(rows, dtype=np.int64) @ r_bits % 2


def privacy_amp_distance(cq: CqState, n: int) -> float:
    """Exact distance of (hash output, member, side info) from uniform.

    The cq symbols must be the integers 0..2^n - 1 (missing symbols get weight
    zero). Computes (1/2)||rho_{YGE} - I/2 (x) rho_{GE}||_1 by exact block
    enumeration over the 2^n members, stacked: the blocks hashed to 1 come
    from one contraction with the parity table <r, x> mod 2, and the block
    hashed to 0 is rho_E minus that one, so both differ from rho_E / 2 by
    the same matrix up to sign and one stacked eigvalsh covers every member.
    """
    members = np.arange(len(XorHashFamily(n)))
    symbols = [int(s) for s in cq.symbols]
    for s in symbols:
        if not 0 <= s < len(members):
            raise InputError(f"symbol {s} outside 0..{len(members) - 1}")
    weighted = np.stack([w * c.matrix for w, c in zip(cq.weights, cq.conditionals)])
    parity = members[:, None] & np.array(symbols)[None, :]
    for shift in (16, 8, 4, 2, 1):  # fold the popcount parity of n <= 20 bits into bit 0
        parity ^= parity >> shift
    ones = np.einsum("rx,xij->rij", parity & 1, weighted)
    diff = hermitize(ones - weighted.sum(axis=0) / 2.0)
    return float(np.abs(np.linalg.eigvalsh(diff)).sum()) / len(members)


def privacy_amp_check(cq: CqState, n: int) -> tuple[bool, float, float, float]:
    """Distance <= (1/2) * 2^{-(Hmin - 1)/2} + 1e-9 with Hmin from the certified dual.

    Returns (ok, distance, bound, hmin_lower). The dual value upper-bounds the
    guessing probability, so hmin_lower never exceeds the true min-entropy and
    the bound is never spuriously small.
    """
    distance = privacy_amp_distance(cq, n)
    cert = guessing_probability(cq)
    hmin_lower = -float(math.log2(cert.dual_value))
    bound = 0.5 * 2.0 ** (-(hmin_lower - 1.0) / 2.0)
    return distance <= bound + 1e-9, distance, bound, hmin_lower
