"""Replayable random tapes for batches of seeded runs.

Each lane of a seed has one stream: numpy's PCG64 seeded as `default_rng(seed
+ (lane,))` seeds it. A batch's runs cut it into rows (`lane_blocks`), so run
r's tape on a lane of `size` words is words r * size to (r + 1) * size - 1 of
that stream, and run r replays alone after `advance(r * size)`. `Tape` reads
a batch's blocks one word per draw.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import InputError


def stream(seed, lane: int):
    """Derived seed for one party's random tape; keeps runs replayable."""
    entries = seed if isinstance(seed, (tuple, list)) else (seed,)
    return (*map(int, entries), lane)


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


def lane_blocks(seed, runs: int, sizes, rows: int):
    """(first run, each lane's (k, size) block of raw outputs) of runs
    0..runs-1, `rows` runs at a time. Lane l's stream is the PCG64 that
    `default_rng(stream(seed, l))` builds, and run r reads its row r: the
    same rows whatever `rows` is."""
    words = seed_words(seed)
    lanes = [np.random.PCG64(np.random.SeedSequence(np.array(words + [lane], np.uint32)))
             for lane in range(len(sizes))]
    for start in range(0, runs, rows):
        k = min(rows, runs - start)
        yield start, [g.random_raw((k, size)) for g, size in zip(lanes, sizes)]


@functools.cache
def run_index(runs: int, ndim: int = 1) -> np.ndarray:
    """Run numbers shaped to index (runs, ...) arrays of `ndim` dimensions."""
    index = np.arange(runs).reshape((-1,) + (1,) * (ndim - 1))
    index.setflags(write=False)  # one cached array serves every caller
    return index


def _per_run(value, at: np.ndarray):
    """A cursor value shaped against offsets `at`, if it holds one per run."""
    if isinstance(value, np.ndarray) and value.ndim:
        return value.reshape(-1, *[1] * (max(at.ndim, 2) - 1))
    return value


def _read(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each run's entries of `table` at shared (1-D) or per-run indices."""
    return table[:, index] if index.ndim == 1 else table[run_index(len(table), index.ndim), index]


class Tape:
    """One lane's tape for each run of a batch: a row of raw PCG64 outputs
    (`raw`, runs x words, little-endian) read by the run's cursor, one word
    per draw. A double is a word shifted right by 11, times 2**-53; a bit is
    a word's top bit. A call consumes `count` draws (an int, or one per run)
    and returns them all, or those at per-run offsets `at`; an offset outside
    a run's count reads junk.
    """

    def __init__(self, raw: np.ndarray):
        self.raw = raw
        self.word = 0  # next unread word: an int, or one per run

    def _take(self, count, at) -> np.ndarray:
        word = self.word
        self.word = word + count
        if at is None and isinstance(word, int):
            return self.raw[:, word:word + count]
        at = np.arange(count) if at is None else at
        return _read(self.raw, _per_run(word, at) + at)

    def random(self, count, at=None) -> np.ndarray:
        return (self._take(count, at) >> 11) * 2.0 ** -53

    def integers(self, count, at=None) -> np.ndarray:
        return (self._take(count, at) >> 63).astype(np.uint8)
