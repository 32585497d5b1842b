"""Seed derivation, and the batched copy of numpy's `default_rng` seeding.

`seed_sequence_words` and `pcg64_states` must give exactly what numpy's own
`SeedSequence` and `PCG64` give, for every seed `local_train` can be handed;
numpy itself is the oracle.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.seeds import derive_seed, derive_seeds, pcg64_states, seed_sequence_words

# the word boundaries of the hash input, and both ends of the range
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]
seeds_u64 = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(seeds_u64, max_size=12))
@example(EDGE_SEEDS)
def test_seed_words_equal_seed_sequence(seeds):
    words = seed_sequence_words(np.array(seeds, dtype=np.uint64))
    assert words.dtype == np.uint64
    assert words.shape == (len(seeds), 4)
    for seed, row in zip(seeds, words):
        np.testing.assert_array_equal(
            row, np.random.SeedSequence(seed).generate_state(4, np.uint64)
        )


@settings(max_examples=100, deadline=None)
@given(st.lists(seeds_u64, min_size=1, max_size=8))
@example(EDGE_SEEDS)
def test_pcg64_states_equal_default_rng(seeds):
    states = pcg64_states(seed_sequence_words(np.array(seeds, dtype=np.uint64)))
    for seed, state in zip(seeds, states, strict=True):
        assert state == np.random.default_rng(seed).bit_generator.state
        # and a Generator set to it draws what default_rng(seed) draws
        gen = np.random.default_rng(0)
        gen.bit_generator.state = state
        np.testing.assert_array_equal(
            gen.permutation(50), np.random.default_rng(seed).permutation(50)
        )


def test_seed_words_of_a_strided_view():
    seeds = np.arange(10, dtype=np.uint64) * np.uint64(2**61)
    np.testing.assert_array_equal(
        seed_sequence_words(seeds[::3]), seed_sequence_words(seeds[::3].copy())
    )


@settings(max_examples=50, deadline=None)
@given(
    master=st.integers(0, 2**40),
    round_index=st.integers(0, 10**4),
    count=st.integers(0, 300),
)
def test_derive_seeds_equals_derive_seed_per_device(master, round_index, count):
    assert derive_seeds(master, "train", round_index, count=count) == [
        derive_seed(master, "train", round_index, k) for k in range(count)
    ]
