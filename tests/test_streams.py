import numpy as np
import pytest

from mfgcoef.streams import _PCG_LANES, SeedSequence, pcg64_random, philox_random

# 2^32 - 1 and 2^32 cross the one- to two-word seed, 2^64 + 3 gives three
# words (padded to the pool in a child), 10^30 four, so a child's key word
# is mixed in after the pool
SEEDS = [0, 1, 17, 2**32 - 1, 2**32, 2**64 + 3, 10**30]
# 441 and 924 are a slice and a trace of the default noise, 1700 the
# default certification; 170000 takes many rows of lanes
SIZES = [1, 3, 4, 5, 441, 924, 1700, 170000]
CHILDREN = 6


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_sequence_is_numpys(seed):
    ours, theirs = SeedSequence(seed), np.random.SeedSequence(seed)
    assert ours.generate_state(4) == theirs.generate_state(4, np.uint64).tolist()
    for i, (child, ref) in enumerate(zip(ours.spawn(CHILDREN), theirs.spawn(CHILDREN))):
        assert child.spawn_key == ref.spawn_key == (i,)
        assert child.generate_state(4) == ref.generate_state(4, np.uint64).tolist(), i


@pytest.mark.parametrize("seed", SEEDS)
def test_philox_is_numpys_for_every_child(seed):
    children = zip(SeedSequence(seed).spawn(CHILDREN), np.random.SeedSequence(seed).spawn(CHILDREN))
    for i, (child, ref) in enumerate(children):
        for size in SIZES:
            expect = np.random.Generator(np.random.Philox(ref)).random(size)
            assert np.array_equal(philox_random(child, (size,)), expect), (i, size)


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg64_is_default_rngs(seed):
    for size in SIZES + [_PCG_LANES - 1, _PCG_LANES, _PCG_LANES + 1]:
        expect = np.random.default_rng(seed).random(size)
        assert np.array_equal(pcg64_random(SeedSequence(seed), (size,)), expect), size


def test_shapes_fill_in_row_major_order():
    expect = np.random.default_rng(5).random((100, 17))
    assert np.array_equal(pcg64_random(SeedSequence(5), (100, 17)), expect)
    child = np.random.SeedSequence(5).spawn(3)[2]
    expect = np.random.Generator(np.random.Philox(child)).random((21, 44))
    assert np.array_equal(philox_random(SeedSequence(5).spawn(3)[2], (21, 44)), expect)
    assert pcg64_random(SeedSequence(5), (0, 17)).shape == (0, 17)
    assert philox_random(SeedSequence(5), (0,)).shape == (0,)


def test_streams_are_pinned():
    # the program's streams stay fixed even if numpy's were to change
    assert SeedSequence(17).generate_state(4) == [
        0x13BEEB3B1CB825F0, 0xB7EDFA403A87E835, 0x1DA995ACCABD6A05, 0x1DA933E483C0DFC2,
    ]
    assert SeedSequence(17).spawn(6)[5].generate_state(2) == [
        0x2971BF54750D59FC, 0x1957ABBB5BB546AA,
    ]
    draws = pcg64_random(SeedSequence(17), (4097,))
    assert [float.hex(float(draws[i])) for i in (0, 1, 4096)] == [
        "0x1.b0ada4ab7b5f9p-1", "0x1.49ac4290dbd58p-3", "0x1.5cff47d0f2da3p-1",
    ]
    draws = philox_random(SeedSequence(17).spawn(6)[3], (6,))
    assert [float.hex(float(draws[i])) for i in (0, 5)] == [
        "0x1.327074cf7643cp-1", "0x1.01e546d2279d8p-4",
    ]


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        SeedSequence(-1)
