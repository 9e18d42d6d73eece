"""Random number generation matching the paper's two-level scheme (§V).

The host uses the Mersenne twister to generate one 64-bit seed per device
thread; each device thread then advances a cheap xorshift generator locally.
We reproduce this exactly:

* :func:`host_generator` — an MT19937-backed NumPy ``Generator`` for all
  host-side decisions (genetic operations, adaptive selection).
* :class:`XorShift64Star` — a vectorized lane-parallel xorshift64* generator;
  one lane per virtual device thread, all lanes advanced by single fused
  uint64 ufunc expressions (no Python-level per-lane loop).

The device-side search hot path consumes lanes through three primitives
(see DESIGN.md §6) designed so the fused phase kernels never pay a
``(B, n)`` float conversion:

* :meth:`XorShift64Star.next_keys` — advance every lane, return the 53-bit
  scrambled outputs as **integer keys**.  Because ``key ↦ key · 2⁻⁵³`` is
  strictly monotonic and injective, any argmax/comparison over the keys is
  bit-identical to the same operation over the floats they would convert to.
* :meth:`XorShift64Star.bernoulli` — lane-wise coin flips by integer
  threshold: ``key < ⌈p · 2⁵³⌉``, provably equal to ``random() < p``.
* :meth:`XorShift64Star.row_random` — one float draw per **row** advancing
  only lane column 0 (the block-level "thread 0 draws" idiom); used for
  per-row scalar decisions like MaxMin's threshold.

Determinism: a full solver run is a pure function of (model, config, seed).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["host_generator", "random_bits", "spawn_device_seeds", "XorShift64Star"]

_MULTIPLIER = np.uint64(0x2545F4914F6CDD1D)
_DOUBLE_SCALE = float(2.0**-53)
#: 2⁵³ as a float — exact; used to turn probabilities into integer thresholds
_KEY_SPAN = float(2.0**53)

_U11 = np.uint64(11)
_U12 = np.uint64(12)
_U25 = np.uint64(25)
_U27 = np.uint64(27)


def host_generator(seed: int | None) -> np.random.Generator:
    """Mersenne-twister host RNG, as used on the host CPU in the paper."""
    return np.random.Generator(np.random.MT19937(seed))


def random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """Fair 0/1 uint8 draws: ``rng.integers(0, 2, shape, dtype=np.uint8)``,
    the same array and the same stream state after it.

    NumPy draws a bounded uint8 from the bytes of 32-bit words, low byte
    first, one word per four values, and its Lemire step over a range of
    2 keeps each byte's top bit (DESIGN.md §5).  On MT19937, whose raw
    output is those 32-bit words, the bits come straight from
    ``random_raw``, without the per-value bounded draw.  Any other bit
    generator takes NumPy's own call; ``tests/ga/test_random_bits.py``
    holds the two forms equal on the installed NumPy.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.MT19937:
        return rng.integers(0, 2, size=shape, dtype=np.uint8)
    count = math.prod(shape) if isinstance(shape, tuple) else int(shape)
    words = bitgen.random_raw(-(-count // 4)).astype("<u4")
    return (words.view(np.uint8)[:count] >> 7).reshape(shape)


def spawn_device_seeds(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw non-zero 64-bit xorshift seeds from the host generator."""
    seeds = rng.integers(1, np.iinfo(np.uint64).max, size=shape, dtype=np.uint64)
    return seeds


def bernoulli_threshold(p: float) -> int:
    """Integer key threshold equivalent to ``random() < p``.

    ``random()`` is ``key · 2⁻⁵³`` with ``key`` an exact 53-bit integer, so
    ``random() < p  ⟺  key < p · 2⁵³  ⟺  key < ⌈p · 2⁵³⌉`` (the float
    product is an exact power-of-two scaling; the ceiling is exact below
    2⁶³).  Shared by the reference :meth:`XorShift64Star.bernoulli` and the
    fused kernels' per-iteration threshold tables.
    """
    return math.ceil(p * _KEY_SPAN)


class XorShift64Star:
    """Lane-parallel xorshift64* PRNG.

    Each lane holds independent 64-bit state.  ``shape`` is arbitrary; the
    virtual GPU uses shape ``(B, n)`` — one lane per (block, thread) pair,
    mirroring the per-thread RNG of the CUDA implementation.
    """

    __slots__ = ("state", "_scratch")

    def __init__(self, seeds: np.ndarray) -> None:
        state = np.ascontiguousarray(seeds, dtype=np.uint64)
        if np.any(state == 0):
            raise ValueError("xorshift64* seeds must be non-zero")
        self.state = state.copy()
        self._scratch: np.ndarray | None = None

    @classmethod
    def view(cls, state: np.ndarray) -> "XorShift64Star":
        """A generator over *state* without copying it.

        All advancement runs through in-place ufuncs, so a view over a row
        slice of a larger lane array (the coalesced super-launch's merged
        RNG block, DESIGN.md §12) mutates the parent rows directly.  The
        caller guarantees non-zero uint64 lanes.
        """
        gen = object.__new__(cls)
        gen.state = state
        gen._scratch = None
        return gen

    @property
    def shape(self):
        """Lane array shape."""
        return self.state.shape

    # -- lane advancement --------------------------------------------------
    def advance(self) -> None:
        """Advance every lane in place without materializing outputs.

        Allocation-free after the first call (one reused uint64 scratch),
        so fused kernels that only need the scrambled *keys* skip the float
        conversion entirely.
        """
        x = self.state
        s = self._scratch
        if s is None:
            s = self._scratch = np.empty_like(x)
        np.right_shift(x, _U12, out=s)
        np.bitwise_xor(x, s, out=x)
        np.left_shift(x, _U25, out=s)
        np.bitwise_xor(x, s, out=x)
        np.right_shift(x, _U27, out=s)
        np.bitwise_xor(x, s, out=x)

    def next_uint64(self) -> np.ndarray:
        """Advance every lane; return the scrambled 64-bit outputs."""
        self.advance()
        return self.state * _MULTIPLIER

    def next_keys(self, out: np.ndarray | None = None) -> np.ndarray:
        """Advance every lane; return 53-bit integer keys (int64, ≥ 0).

        ``key = (state · M) >> 11`` — exactly the integer whose scaling by
        2⁻⁵³ is :meth:`random`'s output, so ordering/equality of keys and
        floats coincide bit-exactly.
        """
        self.advance()
        if out is None:
            out = np.empty(self.shape, dtype=np.int64)
        u = out.view(np.uint64)
        np.multiply(self.state, _MULTIPLIER, out=u)
        np.right_shift(u, _U11, out=u)
        return out

    def random(self) -> np.ndarray:
        """Uniform float64 in [0, 1) per lane (53-bit resolution)."""
        return (self.next_uint64() >> _U11).astype(np.float64) * _DOUBLE_SCALE

    def row_random(self, col: int = 0) -> np.ndarray:
        """Uniform float64 in [0, 1) per **row**, advancing only lane
        column *col* — the device analogue of "thread 0 draws for the
        block".  Requires a 2-D lane array.
        """
        lane = self.state[:, col]
        lane ^= lane >> _U12
        lane ^= lane << _U25
        lane ^= lane >> _U27
        return ((lane * _MULTIPLIER) >> _U11).astype(np.float64) * _DOUBLE_SCALE

    def bernoulli(self, p) -> np.ndarray:
        """Boolean array: lane-wise True with probability *p*.

        Scalar *p* takes the integer-threshold fast path (bit-identical to
        ``random() < p``, see :func:`bernoulli_threshold`); array *p* falls
        back to the float comparison.
        """
        if np.ndim(p) == 0:
            return self.next_keys() < bernoulli_threshold(float(p))
        return self.random() < p

    def integers(self, high: int) -> np.ndarray:
        """Lane-wise integers uniform in [0, high) (multiply-shift, unbiased
        enough for search heuristics; exact rejection sampling is not needed
        because selections are re-randomized every flip)."""
        if high <= 0:
            raise ValueError(f"high must be positive, got {high}")
        return (self.random() * high).astype(np.int64)
