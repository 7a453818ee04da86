"""Per-replicate and per-site random streams, derived in blocks onto one
reused generator.

Stream i of (seed, key) is numpy's `PCG64(SeedSequence(seed, spawn_key=
(*key, i)))`. Building it through `default_rng` costs 11-22 us of
Python-level work per stream, all of it holding the GIL. `streams` computes
the same states for a block of indices at once: SeedSequence's hash over
uint32 arrays, then PCG64's seeding step on Python ints. NEP 19 and numpy's
stream-compatibility policy fix both algorithms, and
`tests/test_streams.py` checks every state against numpy's own.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# SeedSequence's constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
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


def _words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian uint32
    words, 0 being one word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


# The arithmetic below is on uint32 words, held either as Python ints or as
# numpy uint32 arrays; masking after each product keeps both in 32 bits.

class _Hash:
    """SeedSequence's hashmix, whose constant advances at every call."""

    def __init__(self, const: int) -> None:
        self.const = const

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * _MULT_A & _MASK32
        value = value * self.const & _MASK32
        return value ^ value >> _XSHIFT


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _absorb(pool: list, hashmix: _Hash, words) -> None:
    """Mix each entropy word past the pool's first fill into every pool
    word, in place."""
    for word in words:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))


def _prefix(seed: int, key: tuple[int, ...]) -> tuple[list[int], int]:
    """The pool, and the hash constant, once the seed and key words are
    mixed in; every stream of (seed, key) starts from them. A spawn key
    follows, so the seed's words are padded to the pool size, and the
    pool's first fill and cross-mix read only the seed."""
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    hashmix = _Hash(_INIT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    _absorb(pool, hashmix,
            entropy[_POOL_SIZE:] + [w for part in key for w in _words(part)])
    return pool, hashmix.const


def _seed_words(prefix: tuple[list[int], int],
                words: list[np.ndarray]) -> np.ndarray:
    """(indices x 8) uint32: `generate_state(4, np.uint64)`'s words for the
    indices whose entropy words are `words`, one array per word."""
    pool = [np.full(words[0].size, value, np.uint32) for value in prefix[0]]
    _absorb(pool, _Hash(prefix[1]), words)
    out = np.empty((words[0].size, 2 * _POOL_SIZE), np.uint32)
    const = _INIT_B
    for dst in range(2 * _POOL_SIZE):
        value = pool[dst % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
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
    out = np.empty((values.size, 2 * _POOL_SIZE), np.uint32)
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
    # Built from (seed, key) so that numpy checks both, as it would for
    # each stream; its own state is replaced before the first yield.
    bit_generator = np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=key))
    prefix = _prefix(seed, key)
    generator = np.random.Generator(bit_generator)
    for start in range(0, len(indices), _BLOCK):
        for state, inc in _states(prefix, indices[start:start + _BLOCK]):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}
            yield generator
