"""Binary linear codes, syndromes, coset representatives, and Hamming-ball
counting. Everything is exact GF(2) arithmetic; the caps bound what is
enumerated: 2^k codewords for distance and coset searches (k <= 20) and the
strings of a Hamming ball (at most 2^16)."""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

BRUTE_FORCE_K_CAP = 20
BALL_SIZE_CAP = 2**16


def binary_entropy(p: float) -> float:
    """h(p) on [0, 1] with h(0) = h(1) = 0."""
    if p < 0.0 or p > 1.0:
        raise InputError(f"binary entropy argument {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def _as_bit_array(bits, n: int | None = None) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8) % 2
    if arr.ndim != 1:
        raise InputError("bit string must be one-dimensional")
    if n is not None and arr.size != n:
        raise InputError(f"bit string length {arr.size}, expected {n}")
    return arr


def bits_to_int(bits: np.ndarray) -> int:
    """Most-significant bit first, so integer order equals lexicographic order."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def _row_reduce(m: np.ndarray, n_cols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination over GF(2) on a copy of m, pivoting on the
    first n_cols columns (all by default); returns the reduced matrix and its
    pivot columns. Row r of the result holds the pivot of column pivots[r]."""
    m = np.array(m, dtype=np.uint8)
    pivots: list[int] = []
    for col in range(m.shape[1] if n_cols is None else n_cols):
        row = len(pivots)
        below = np.flatnonzero(m[row:, col])
        if below.size == 0:
            continue
        pivot = row + int(below[0])
        m[[row, pivot]] = m[[pivot, row]]
        hits = m[:, col].astype(bool)
        hits[row] = False
        m[hits] ^= m[row]
        pivots.append(col)
    return m, pivots


def _null_space_gf2(reduced: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Rows spanning {x : G x^T = 0} over GF(2), from G's reduced form."""
    n = reduced.shape[1]
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = np.zeros(n, dtype=np.uint8)
        v[f] = 1
        for r, p in enumerate(pivots):
            if reduced[r, f]:
                v[p] = 1
        basis.append(v)
    return np.array(basis, dtype=np.uint8) if basis else np.zeros((0, n), np.uint8)


@dataclass(frozen=True, eq=False)
class LinearCode:
    """[n, k, d] binary linear code given by a full-rank generator matrix.

    Codes compare and hash by identity: generated field-wise equality over
    ndarrays would raise instead of returning a bool.
    """

    generator: np.ndarray = field(repr=False)
    parity_check: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.generator, dtype=np.uint8) % 2
        if g.ndim != 2:
            raise InputError("generator must be a 2-d bit matrix")
        k, n = g.shape
        if k < 1 or n < 1 or k > n:
            raise InputError(f"invalid code parameters k={k}, n={n}")
        reduced, pivots = _row_reduce(g)
        if len(pivots) != k:
            raise InputError(f"generator rows are not independent (rank < {k})")
        g = g.copy()
        h = _null_space_gf2(reduced, pivots)
        for m in (g, h):
            m.setflags(write=False)
        object.__setattr__(self, "generator", g)
        object.__setattr__(self, "parity_check", h)

    @property
    def n(self) -> int:
        return self.generator.shape[1]

    @property
    def k(self) -> int:
        return self.generator.shape[0]

    def codewords(self) -> np.ndarray:
        """All 2^k codewords as a read-only (2^k, n) bit matrix (message order)."""
        return self._codewords

    @functools.cached_property
    def _codewords(self) -> np.ndarray:
        if self.k > BRUTE_FORCE_K_CAP:
            raise InputError(f"k={self.k} exceeds brute-force cap {BRUTE_FORCE_K_CAP}")
        msgs = np.array(
            list(itertools.product((0, 1), repeat=self.k)), dtype=np.uint8
        )
        words = (msgs @ self.generator) % 2
        words.setflags(write=False)
        return words

    @functools.cached_property
    def _syndrome_solver(self) -> np.ndarray:
        """P, an (n, n-k) bit matrix with H P = I, so x = P s solves H x = s.
        Gauss-Jordan on [H | I] gives [R | E] with R = E H; P holds E in the
        rows of H's pivot columns and 0 elsewhere."""
        h = self.parity_check
        aug, pivots = _row_reduce(
            np.concatenate([h, np.eye(h.shape[0], dtype=np.uint8)], axis=1), h.shape[1])
        solver = np.zeros((h.shape[1], h.shape[0]), dtype=np.uint8)
        solver[pivots] = aug[:len(pivots), h.shape[1]:]
        solver.setflags(write=False)
        return solver

    def min_distance(self) -> int:
        """Exact minimum distance by weight enumeration (k <= 20)."""
        words = self.codewords()
        weights = words.sum(axis=1)
        nonzero = weights[np.any(words != 0, axis=1)]
        if nonzero.size == 0:
            raise InputError("code has no nonzero codewords")  # unreachable: k >= 1
        return int(nonzero.min())


def syndrome(code: LinearCode, x) -> np.ndarray:
    bits = _as_bit_array(x, code.n)
    return (code.parity_check @ bits) % 2


def coset_members(code: LinearCode, s) -> np.ndarray:
    """All strings with syndrome s, as a (2^k, n) bit matrix."""
    s_bits = _as_bit_array(s, code.n - code.k)
    x0 = (code._syndrome_solver @ s_bits) % 2  # H has full rank: every s occurs
    return code.codewords() ^ x0.astype(np.uint8)


def nearest_coset_rep(code: LinearCode, s, reference) -> np.ndarray:
    """The syndrome-s string closest to `reference` in Hamming distance.

    Ties break to the lexicographically smallest bit string.
    """
    ref = _as_bit_array(reference, code.n)
    members = coset_members(code, s)
    dists = (members ^ ref).sum(axis=1)
    candidates = members[dists == dists.min()]
    # lexsort's last key is its primary one: column 0, the most significant bit
    return candidates[np.lexsort(candidates.T[::-1])[0]].copy()


def hamming_ball(n: int, radius: int) -> list[np.ndarray]:
    """All bit strings within `radius` flips of the zero string, at most
    BALL_SIZE_CAP of them."""
    if radius < 0 or radius > n:
        raise InputError(f"radius {radius} outside [0, {n}]")
    size = ball_size(n, radius)
    if size > BALL_SIZE_CAP:
        raise InputError(f"ball of {size} strings exceeds the cap of {BALL_SIZE_CAP}")
    out = []
    for w in range(radius + 1):
        for support in itertools.combinations(range(n), w):
            v = np.zeros(n, dtype=np.uint8)
            for i in support:
                v[i] = 1
            out.append(v)
    return out


def hamming_ball_around(x, radius: int) -> list[np.ndarray]:
    center = _as_bit_array(x)
    return [center ^ v for v in hamming_ball(center.size, radius)]


def ball_size(n: int, radius: int) -> int:
    return sum(math.comb(n, w) for w in range(radius + 1))


# Named codes for the CLI.
REPETITION_3 = np.array([[1, 1, 1]], dtype=np.uint8)
REPETITION_4 = np.array([[1, 1, 1, 1]], dtype=np.uint8)
HAMMING_7_4 = np.array(
    [
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ],
    dtype=np.uint8,
)

NAMED_CODES = {
    "rep31": REPETITION_3,
    "rep41": REPETITION_4,
    "hamming74": HAMMING_7_4,
}


def named_code(name: str) -> LinearCode:
    if name not in NAMED_CODES:
        raise InputError(f"unknown code {name!r}; options: {sorted(NAMED_CODES)}")
    return LinearCode(NAMED_CODES[name])
