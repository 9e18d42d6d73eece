"""The raw-word form of the host's fair 0/1 draws
(:func:`repro.core.rng.random_bits`, DESIGN.md §5).

On MT19937 it reads the Twister's raw 32-bit words, one per four values,
instead of NumPy's bounded uint8 draw.  The two must give the same array
and leave the generator in the same state, on the NumPy installed here:
this file fails first if a NumPy release changes its bounded-draw
algorithm.  Any other bit generator takes NumPy's own call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rng import host_generator, random_bits
from repro.ga.operations import TargetGenerator
from repro.ga.pool import SolutionPool

#: 1 element, sizes around a word (4 values), shapes whose size is not a
#: multiple of 4, empty shapes and the launch-sized ones
SHAPES = [1, 3, (1,), (2,), (4,), (5,), (7,), (1, 1), (2, 3), (3, 5), (13, 17),
          (16, 96), (16, 512), (100, 512), (0,), (4, 0)]
SEEDS = range(25)


def twins(seed):
    return np.random.Generator(np.random.MT19937(seed)), host_generator(seed)


def same_state(a, b):
    """Two generators' bit generators are in the same state."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return repr(sa) == repr(sb)


@pytest.mark.parametrize("shape", SHAPES)
def test_equals_numpys_bounded_draw_and_leaves_the_same_state(shape):
    for seed in SEEDS:
        ref, fast = twins(seed)
        want = ref.integers(0, 2, size=shape, dtype=np.uint8)
        got = random_bits(fast, shape)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want), seed
        assert same_state(fast, ref), seed
        # the draws after it are the same too
        assert fast.random() == ref.random()
        assert np.array_equal(fast.integers(0, 2, size=9, dtype=np.uint8),
                              ref.integers(0, 2, size=9, dtype=np.uint8))


def test_a_run_of_mixed_draws_stays_in_step():
    for seed in SEEDS:
        ref, fast = twins(seed)
        for shape in ((3,), (5, 7), (1,), (16, 96), (2,)):
            assert np.array_equal(random_bits(fast, shape),
                                  ref.integers(0, 2, size=shape, dtype=np.uint8))
            assert fast.random(3).tolist() == ref.random(3).tolist()


@pytest.mark.parametrize("shape", [(9,), (3, 7), (16, 96)])
def test_other_bit_generators_take_numpys_call(shape):
    """PCG64's raw output is 64-bit and it serves 32-bit words in halves,
    so reading raw words would leave it elsewhere; random_bits must not
    read them there."""
    ref, fast, raw = (np.random.Generator(np.random.PCG64(3)) for _ in range(3))
    want = ref.integers(0, 2, size=shape, dtype=np.uint8)
    assert np.array_equal(random_bits(fast, shape), want)
    assert same_state(fast, ref)
    raw.bit_generator.random_raw(-(-want.size // 4))
    assert not same_state(raw, ref)


def test_pool_and_random_operation_draw_numpys_bits():
    """The callers keep the stream they had: a pool's prefill and its
    reinitialization, and the Random operation."""
    ref, fast = twins(8)
    pool = SolutionPool(10, 33, fast)
    assert np.array_equal(pool.vectors, ref.integers(0, 2, size=(10, 33), dtype=np.uint8))
    ref.choice(np.arange(6, dtype=np.uint8), size=10)
    ref.choice(np.arange(8, dtype=np.uint8), size=10)
    pool.reinitialize(fast)
    assert np.array_equal(pool.vectors, ref.integers(0, 2, size=(10, 33), dtype=np.uint8))
    gen = TargetGenerator(33)
    assert np.array_equal(gen.random_batch(3, fast), ref.integers(0, 2, (3, 33), dtype=np.uint8))
    assert np.array_equal(gen.random_vector(fast), ref.integers(0, 2, 33, dtype=np.uint8))
    assert same_state(fast, ref)
