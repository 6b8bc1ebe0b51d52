"""synth's seed derivation against numpy, the oracle, bit for bit.

synth computes SeedSequence's hashing and mixing with uint32 arrays, a batch
of entropies at a time, and hands each entropy's words to numpy's PCG64,
which seeds itself from them; numpy's own SeedSequence and default_rng
decide what each must give.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppghrv.errors import ConfigError
from ppghrv.synth import (
    _entropy_words,
    derived_rng,
    derived_rngs,
    derived_seed,
    derived_seeds,
    seed_states,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# ints of several 32-bit words, and tuples longer than the pool of 4 words
ints = st.integers(0, 2**100 - 1)
entropies = st.one_of(ints, st.lists(ints, min_size=1, max_size=6).map(tuple))
words = st.integers(0, 2**32 - 1)


def pcg64_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state["state"]


@SETTINGS
@given(entropy=entropies, n_words=st.integers(1, 8), data=st.data())
def test_seed_states_match_seed_sequence(entropy, n_words, data):
    # the first row is entropy's words; the others are as many words drawn
    # freely, each the entropy of the tuple of its words
    first = _entropy_words(entropy)
    others = data.draw(st.lists(st.lists(words, min_size=len(first), max_size=len(first)),
                                max_size=4))
    rows = np.array([first] + others, dtype=np.uint32)
    got = seed_states(rows, n_words)
    assert got.dtype == np.uint32 and got.shape == (rows.shape[0], n_words)
    for e, row in zip([entropy] + [tuple(o) for o in others], got):
        np.testing.assert_array_equal(row, np.random.SeedSequence(e).generate_state(n_words))


@SETTINGS
@given(entropy=entropies)
def test_derived_rng_matches_default_rng(entropy):
    got = derived_rng(entropy)
    want = np.random.default_rng(np.random.SeedSequence(entropy))
    assert got.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(got.random(5), want.random(5))
    np.testing.assert_array_equal(got.integers(0, 1000, 5), want.integers(0, 1000, 5))
    assert derived_seed(entropy) == int(np.random.SeedSequence(entropy).generate_state(1)[0])


@SETTINGS
@given(seeds=st.lists(words, max_size=20))
def test_batched_pcg64_states_match_default_rng(seeds):
    # amplify's route: each 32-bit seed s as the entropy (s,), all in one batch
    seeds = [0, 1, 2**32 - 1] + seeds
    got = [pcg64_state(rng) for rng in derived_rngs((), seeds)]
    assert got == [pcg64_state(np.random.default_rng(s)) for s in seeds]


@SETTINGS
@given(prefix=st.lists(ints, max_size=3).map(tuple), indices=st.lists(words, max_size=8))
def test_batches_match_one_entropy_at_a_time(prefix, indices):
    assert derived_seeds(prefix, indices) == [
        int(np.random.SeedSequence((*prefix, i)).generate_state(1)[0]) for i in indices
    ]
    for i, rng in zip(indices, derived_rngs(prefix, indices)):
        want = np.random.default_rng(np.random.SeedSequence((*prefix, i)))
        assert pcg64_state(rng) == pcg64_state(want)
        assert rng.random() == want.random()


def test_each_stream_starts_with_no_buffered_draw():
    # an odd number of 32-bit draws leaves half of a 64-bit output buffered
    # in the bit generator; the next stream of the batch must not start
    # from it
    for rng, s in zip(derived_rngs((), [5, 6, 7]), [5, 6, 7]):
        np.testing.assert_array_equal(
            rng.integers(0, 1000, 5, dtype=np.uint32),
            np.random.default_rng(s).integers(0, 1000, 5, dtype=np.uint32),
        )


def test_generators_of_one_batch_are_independent():
    # both generators are taken before either draws: each must still give
    # its own stream
    first, second = derived_rngs((), [5, 6])
    np.testing.assert_array_equal(second.random(5), np.random.default_rng(6).random(5))
    np.testing.assert_array_equal(first.random(5), np.random.default_rng(5).random(5))


@pytest.mark.parametrize("entropy", [-1, (3, -2)])
def test_negative_entropy_is_config_error(entropy):
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -"):
        derived_seed(entropy)


@pytest.mark.parametrize("index", [-1, 2**32])
def test_index_beyond_one_word_is_config_error(index):
    with pytest.raises(ConfigError, match=r"indices must lie in \[0, 2\*\*32\)"):
        derived_seeds((1,), [index])
