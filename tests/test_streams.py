"""The block-derived streams against numpy's own SeedSequence and PCG64."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from silentspecies import (
    PopulationSpec,
    accumulate,
    bootstrap_ci,
    generate,
    polyfit,
    sample,
    sample_site_records,
)
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
# The hash constant after the seed and key depends on their word counts:
# seeds of exactly 4 and of 5 words, a 3-word key part, all-ones words,
# and a 6-word seed with indices of one and two words.
@example(2**96, (), range(3))
@example(2**128 + 3, (), range(3))
@example(5, (2**64 + 1,), range(3))
@example(2**160 - 1, (2**64 - 1,), range(3))
@example(2**160 + 11, (4,), range(2**32 - 2, 2**32 + 2))
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


@pytest.mark.parametrize("kind", [np.int64, np.uint64])
def test_numpy_integer_seeds_act_as_python_ints(kind):
    population = generate(PopulationSpec(s_true=60, distribution="zipf"))
    tally = sample(population, 400, seed=3)
    x = np.arange(30.0)
    y = np.sin(x / 4) + x / 10

    def results(seed):
        # 20 tokens over 60 species take the categorical sampler, 200 the
        # multinomial one.
        sites = [sample_site_records(population, 25, per_site_n, 0.7, seed)
                 for per_site_n in (20, 200)]
        return (
            [rng.bit_generator.state for rng in streams(seed, (2, 2**40),
                                                        range(3))],
            bootstrap_ci(tally, 200, 0.95, seed),
            accumulate(tally, [50, 300], 20, seed),
            polyfit(x, y, 2, bootstrap_replicates=20, seed=seed),
            [(table.counts.tolist(), table.rows.tolist(),
              [(column.labels, column.codes.tolist())
               for column in table.columns.values()]) for table in sites])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert results(kind(7)) == results(7)
