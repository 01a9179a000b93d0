"""Replayable random tapes for batches of seeded runs.

A seed is a non-negative integer or a tuple or list of them. Each lane of a
seed has one stream: numpy's PCG64 seeded as `default_rng(seed + (lane,))`
seeds it. A batch's runs cut it into rows (`lane_blocks`), so run r's tape on
a lane of `size` words is words r * size to (r + 1) * size - 1 of that
stream, and run r replays alone after `advance(r * size)`; a single run
reads row 0 (`first_rows`). `Tape` reads a block one word per draw.
"""
from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import InputError

_XOR = np.array([0x8B51F9DD * 0x58F38DED**i % 2**32 for i in range(8)], np.uint32).reshape(2, 4)
_MUL = _XOR * np.uint32(0x58F38DED)  # the next constant of each, mod 2**32


def stream(seed, lane: int):
    """Derived seed for one party's random tape; keeps runs replayable."""
    entries = seed if isinstance(seed, (tuple, list)) else (seed,)
    try:
        return (*map(operator.index, entries), lane)
    except TypeError:
        raise InputError("seeds must be non-negative integers or tuples of them") from None


def seed_words(seed) -> list[int]:
    """`seed`'s entries as the little-endian uint32 words SeedSequence makes
    of them; with the lane appended they are the entropy of the lane's stream
    (an array of them seeds faster than the tuple)."""
    words = []
    for v in stream(seed, 0)[:-1]:
        if v < 0:
            raise InputError("seeds must be non-negative integers")
        words.append(v & 0xFFFFFFFF)
        while v > 0xFFFFFFFF:
            v >>= 32
            words.append(v & 0xFFFFFFFF)
    return words


@functools.cache
def _generated() -> type:
    """An ISeedSequence handing PCG64 a hashed state; made at first use, as
    importing numpy.random costs start-up time."""

    class Generated(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words=4, dtype=np.uint64) -> np.ndarray:
            return self.state

    return Generated


def _lanes(seed, count: int) -> list:
    """The PCG64 of each of the seed's first `count` lanes. numpy's
    SeedSequence mixes each lane's pool; the state PCG64 asks of it is hashed
    here for every lane at once, not in numpy's dearer Python loop: word i of
    8 is pool word i % 4 XOR K[i], times K[i + 1], xorshift 16 (O'Neill's
    constants K, `_XOR`), paired little end first."""
    words = seed_words(seed)
    pools = [np.random.SeedSequence(np.array(words + [lane], np.uint32)).pool
             for lane in range(count)]
    state = (np.array(pools)[:, None] ^ _XOR) * _MUL
    state ^= state >> 16
    state = state.astype("<u4", copy=False).view("<u8").astype(np.uint64)
    return [np.random.PCG64(_generated()(row)) for row in state.reshape(count, 4)]


def first_rows(seed, sizes) -> list[np.ndarray]:
    """Each lane's (1, size) block of run 0, as `lane_blocks` yields it."""
    return [g.random_raw((1, size)) for g, size in zip(_lanes(seed, len(sizes)), sizes)]


def lane_blocks(seed, runs: int, sizes, rows: int):
    """(first run, each lane's (k, size) block of raw outputs) of runs
    0..runs-1, `rows` runs at a time. Lane l's stream is the PCG64 that
    `default_rng(stream(seed, l))` builds, and run r reads its row r: the
    same rows whatever `rows` is. A loop of no runs is an input error."""
    if runs < 1:
        raise InputError("a loop of runs needs at least one run")
    lanes = _lanes(seed, len(sizes))
    for start in range(0, runs, rows):
        k = min(rows, runs - start)
        yield start, [g.random_raw((k, size)) for g, size in zip(lanes, sizes)]


@functools.cache
def run_index(runs: int, ndim: int = 1) -> np.ndarray:
    """Run numbers shaped to index (runs, ...) arrays of `ndim` dimensions."""
    index = np.arange(runs).reshape((-1,) + (1,) * (ndim - 1))
    index.setflags(write=False)  # one cached array serves every caller
    return index


class Tape:
    """One lane's tape for each run of a batch: a row of raw PCG64 outputs
    (`raw`, runs x words, little-endian) read by the run's cursor, one word
    per draw. A double is a word shifted right by 11, times 2**-53; a bit is
    a word's top bit, as an int64 (it indexes without a cast). A call
    consumes `count` draws (an int, or one per run) and returns them all, or
    those at per-run offsets `at`; an offset outside a run's count reads junk.
    """

    _bits = _doubles = None  # the row as each kind, made at its first draw

    def __init__(self, raw: np.ndarray):
        self.raw = raw
        self.word = 0  # next unread word: an int, or one per run

    def _take(self, table: np.ndarray, count, at) -> np.ndarray:
        word = self.word
        self.word = word + count
        if at is None and isinstance(word, int):
            return table[:, word:word + count]
        at = np.arange(count) if at is None else at
        if isinstance(word, np.ndarray):  # one cursor per run
            word = word.reshape(-1, *[1] * (max(at.ndim, 2) - 1))
        at = word + at
        return table[:, at] if at.ndim == 1 else table[run_index(len(table), at.ndim), at]

    def random(self, count, at=None) -> np.ndarray:
        if self._doubles is None:
            self._doubles = (self.raw >> 11) * 2.0 ** -53
        return self._take(self._doubles, count, at)

    def integers(self, count, at=None) -> np.ndarray:
        if self._bits is None:
            self._bits = (self.raw >> 63).view(np.int64)
        return self._take(self._bits, count, at)
