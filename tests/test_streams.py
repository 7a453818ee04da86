"""The block-derived streams against numpy's own SeedSequence and PCG64."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from silentspecies.streams import _BLOCK, streams


def reference(seed, key, i):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(*key, i))))


def first_draws(rng):
    """One draw of each kind the package makes, in a fixed order."""
    return (rng.random(),
            rng.multinomial(40, [0.1, 0.2, 0.3, 0.4]).tolist(),
            rng.binomial([7, 30, 500], 0.35).tolist(),
            rng.multivariate_hypergeometric([5, 9, 2, 14], 11).tolist(),
            rng.integers(0, 1000, size=3).tolist())


# Seeds of one to five uint32 words, at and around the word boundaries.
seeds = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32]),
    st.integers(0, 2**32).map(lambda k: 2**64 + k),
    st.integers(0, 2**32).map(lambda k: 2**128 + k),
    st.integers(0, 2**160))
keys = st.one_of(
    st.sampled_from([(), (3,), (2**32 + 1, 0)]),
    st.lists(st.integers(0, 2**70), max_size=3).map(tuple))
# Windows of indices, some straddling 2**32, where an index gains a word.
windows = st.builds(
    lambda start, length, step: range(start, start + length * step, step),
    st.one_of(st.integers(0, 3000),
              st.integers(2**32 - 40, 2**32 + 5),
              st.integers(2**40, 2**40 + 10)),
    st.integers(0, 30),
    st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(seeds, keys, windows)
def test_states_and_draws_match_numpy(seed, key, indices):
    yielded = 0
    for i, rng in zip(indices, streams(seed, key, indices)):
        expected = reference(seed, key, i)
        assert rng.bit_generator.state == expected.bit_generator.state
        assert first_draws(rng) == first_draws(expected)
        yielded += 1
    assert yielded == len(indices)


def test_blocks_join_without_a_gap():
    indices = range(5, 5 + 2 * _BLOCK + 3, 2)
    states = [rng.bit_generator.state["state"]
              for rng in streams(7, (1,), indices)]
    assert states == [reference(7, (1,), i).bit_generator.state["state"]
                      for i in indices]


def test_one_generator_is_reused():
    assert len({id(rng) for rng in streams(1, (), range(5))}) == 1


@pytest.mark.parametrize("seed, key", [(-1, ()), (3, (-2,)), (1.5, ())])
def test_bad_seed_or_key_raises_numpys_own_error(seed, key):
    with pytest.raises(Exception) as numpys:
        np.random.SeedSequence(seed, spawn_key=(*key, 0))
    with pytest.raises(numpys.type, match=re.escape(str(numpys.value))):
        next(streams(seed, key, range(1)))
