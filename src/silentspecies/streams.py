"""Per-replicate and per-site random streams, derived in blocks onto one
reused generator.

Stream i of (seed, key) is numpy's `PCG64(SeedSequence(seed, spawn_key=
(*key, i)))`. Building it through `default_rng` costs 11-22 us of
Python-level work per stream, all of it holding the GIL. Every stream of
(seed, key) starts from the pool of `SeedSequence(seed, spawn_key=key)`,
since the index's words come last. `streams` takes that pool from numpy
and derives a block of indices' states at once: the index words' hash on
uint32 arrays, then PCG64's seeding step on Python ints. NEP 19 and numpy's
stream-compatibility policy fix both algorithms, and `tests/test_streams.py`
checks every state against numpy's own.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# SeedSequence's constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# Indices whose states are derived together: a block's arrays take about
# 100 KB, however many streams are asked for.
_BLOCK = 1024


def _prefix(seq: np.random.SeedSequence) -> tuple[list[int], int]:
    """`seq`'s pool, and the hash constant that follows it. Each hashmix
    call multiplies the constant by _MULT_A: filling and cross-mixing the
    pool takes size**2 calls, and each entropy word past the pool's first
    fill takes `size` more. Only a seed longer than the pool has such words,
    as the seed is padded to the pool size before a spawn key."""
    size = seq.pool.size
    words = [(int(value).bit_length() + 31) // 32 or 1
             for value in (seq.entropy, *seq.spawn_key)]
    calls = size * (size + max(0, words[0] - size) + sum(words[1:]))
    return seq.pool.tolist(), _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32


def _seed_words(prefix: tuple[list[int], int],
                words: list[np.ndarray]) -> np.ndarray:
    """(indices x 8) uint32: `generate_state(4, np.uint64)`'s words for the
    indices whose entropy words are `words`, one array per word. uint32
    array arithmetic wraps mod 2**32, as SeedSequence's does."""
    pool = [np.full(words[0].size, value, np.uint32) for value in prefix[0]]
    const = prefix[1]
    for word in words:  # mixed into every pool word, as SeedSequence does
        for dst in range(len(pool)):
            value = word ^ const  # hashmix
            const = const * _MULT_A & _MASK32
            value *= const
            value ^= value >> _XSHIFT
            value = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * value  # mix
            pool[dst] = value ^ value >> _XSHIFT
    out = np.empty((words[0].size, 2 * len(pool)), np.uint32)
    const = _INIT_B
    for dst in range(2 * len(pool)):
        value = pool[dst % len(pool)] ^ const
        const = const * _MULT_B & _MASK32
        value *= const
        out[:, dst] = value ^ value >> _XSHIFT
    return out


def _states(prefix: tuple[list[int], int],
            block: range) -> Iterator[tuple[int, int]]:
    """PCG64's (state, inc) for each index of the block, in order."""
    values = np.arange(block.start, block.stop, block.step, dtype=np.uint64)
    low = (values & _MASK32).astype(np.uint32)
    # An index of 2**32 or more adds a second word, so the hash constants
    # differ from there on.
    wide = values > _MASK32
    out = np.empty((values.size, 8), np.uint32)
    for rows, words in ((~wide, [low]),
                        (wide, [low, (values >> 32).astype(np.uint32)])):
        if rows.any():
            out[rows] = _seed_words(prefix, [word[rows] for word in words])
    # Little-endian pairs of words are generate_state's four uint64:
    # initstate's high and low halves, then initseq's.
    halves = out[:, 0::2].astype(np.uint64)
    halves |= out[:, 1::2].astype(np.uint64) << np.uint64(32)
    for row in halves:  # one stream's Python ints at a time
        seed_high, seed_low, seq_high, seq_low = row.tolist()
        # PCG64's srandom: the increment is (initseq << 1) | 1, and the
        # state is stepped, offset by initstate, and stepped again.
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        init = seed_high << 64 | seed_low
        yield ((inc + init) * _PCG_MULT + inc) & _MASK128, inc


def streams(seed: int, key: tuple[int, ...],
            indices: range) -> Iterator[np.random.Generator]:
    """One generator, yielded once per index i of `indices` (each in
    [0, 2**64)), each time in the state of `PCG64(SeedSequence(seed,
    spawn_key=(*key, i)))`. It is the same object every time, so finish
    with one state before asking for the next."""
    # Built first, so that numpy checks the seed and key as it would for
    # each stream; the generator's own state is replaced before the first
    # yield.
    seq = np.random.SeedSequence(seed, spawn_key=key)
    prefix = _prefix(seq)
    bit_generator = np.random.PCG64(seq)
    generator = np.random.Generator(bit_generator)
    for start in range(0, len(indices), _BLOCK):
        for state, inc in _states(prefix, indices[start:start + _BLOCK]):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}
            yield generator
