"""Replayable random tapes for batches of seeded runs.

A run's tape on a lane is numpy's PCG64 seeded as `default_rng(seed +
(lane,))` seeds it: `SeedSequence` hashes the seed's uint32 words and the
lane into a 4-word pool and then into the generator's seed state. The state
is hashed here for a whole batch of runs at once (`seed_states`), or for one
run from numpy's own pools (`word_states`); `state_blocks` draws each run's
block of raw outputs from numpy's PCG64 built on that state, and `Tape`
reads a batch's blocks one word per draw.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import InputError

# numpy's SeedSequence constants: O'Neill's seed_seq hash over a 4-word pool.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# generate_state's constants before and after hashing each word of a PCG64 seed
_STATE_HASH = np.array([[_INIT_B * _MULT_B ** k & 0xFFFFFFFF for k in range(j, j + 8)]
                        for j in (0, 1)], dtype=np.uint32).reshape(2, 2, 4)


def stream(seed, lane: int):
    """Derived seed for one party's random tape; keeps runs replayable."""
    entries = seed if isinstance(seed, (tuple, list)) else (seed,)
    return (*map(int, entries), lane)


def seed_words(seed) -> list[int]:
    """`seed`'s entries as the little-endian uint32 words SeedSequence makes
    of them; with the lane appended they are the entropy of the lane's tape."""
    words = []
    for v in stream(seed, 0)[:-1]:
        if v < 0:
            raise InputError("seeds must be non-negative integers")
        words.append(v & 0xFFFFFFFF)
        while v > 0xFFFFFFFF:
            v >>= 32
            words.append(v & 0xFFFFFFFF)
    return words


def seed_states(seeds) -> np.ndarray:
    """The (runs, 3, 4) uint64 array of
    `SeedSequence(seed_words(seed) + [lane]).generate_state(4, np.uint64)` for
    every seed and lane 0-2, hashed for all of them at once in uint32 arrays."""
    words = [seed_words(seed) for seed in seeds]
    lengths = np.repeat([len(w) + 1 for w in words], 3)
    # zero words past a seed's end hash as the pool fill of a short seed does
    entropy = np.zeros((len(words), 3, max(4, lengths.max(initial=0))), dtype=np.uint32)
    for k, w in enumerate(words):
        entropy[k, :, :len(w) + 1] = [w + [lane] for lane in range(3)]
    entropy = entropy.reshape(-1, entropy.shape[-1])

    def hasher(const: int, mult: int):
        def hashmix(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & 0xFFFFFFFF
            value = value * np.uint32(const)
            return value ^ value >> np.uint32(16)
        return hashmix

    def mix(x, y):
        out = _MIX_L * x - _MIX_R * y
        return out ^ out >> np.uint32(16)

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):
        live = lengths > src
        for dst in range(4):
            pool[dst] = np.where(live, mix(pool[dst], hashmix(entropy[:, src])), pool[dst])
    return _pool_states(np.stack(pool, axis=-1)).reshape(len(words), 3, 4)


def word_states(words: list[int]) -> np.ndarray:
    """One run's (3, 4) seed states, from the pools numpy's SeedSequence mixes."""
    entropy = np.array([words + [lane] for lane in range(3)], dtype=np.uint32)
    return _pool_states(np.array([np.random.SeedSequence(e).pool for e in entropy]))


def _pool_states(pool: np.ndarray) -> np.ndarray:
    """`SeedSequence.generate_state(4, np.uint64)` of each row of a (rows, 4)
    uint32 pool: the pool twice over, each word hashed with its constants."""
    value = (pool[:, None, :] ^ _STATE_HASH[0]) * _STATE_HASH[1]
    value ^= value >> np.uint32(16)
    value = value.reshape(len(pool), 8).astype("<u4", copy=False)
    return value.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _state_seed() -> type:
    """numpy's seed-sequence interface over one precomputed PCG64 state, made
    on first use so that importing this module does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence):
        def __init__(self, state: np.ndarray | None = None):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for its (4, uint64) seed state only

    return StateSeed


def state_blocks(states: np.ndarray, sizes) -> list[np.ndarray]:
    """Each lane's (runs, size) little-endian block of raw PCG64 outputs,
    from the runs' (runs, 3, 4) seed states."""
    seed, rows = _state_seed()(), [[] for _ in sizes]
    drawn = [(lane, size, rows[lane]) for lane, size in enumerate(sizes) if size]
    for run in states:
        for lane, size, out in drawn:
            seed.state = run[lane]
            out.append(np.random.PCG64(seed).random_raw(size))
    return [np.array(r, dtype="<u8") if r else np.empty((len(states), size), "<u8")
            for r, size in zip(rows, sizes)]


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
