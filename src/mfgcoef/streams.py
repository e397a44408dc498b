"""numpy's seeded random streams, reproduced bit for bit in numpy core.

``numpy.random`` imports ``secrets``, and with it ``hmac``, ``hashlib``
and OpenSSL's libcrypto, plus seven bit-generator extensions: about
6 MiB resident and 12 ms of start-up, for the few thousand doubles the
noise and the certification draw.  The streams are fixed, published
algorithms, so they are computed here instead:

- ``SeedSequence``: numpy's seeding (O'Neill's seed_seq idea): the seed's
  32-bit words and the spawn key hashed into a pool of four words, which
  ``generate_state`` expands into the bit generator's key or state.
- ``philox_random``: Philox4x64-10 (Salmon, Moraes, Dror & Shaw,
  "Parallel random numbers: as easy as 1, 2, 3", SC'11), as
  ``Generator(Philox(seq)).random`` draws it.
- ``pcg64_random``: PCG64, the XSL-RR output of a 128-bit LCG
  (O'Neill, HMC-CS-2014-0905), as ``Generator(PCG64(seq)).random``
  draws it, which is what ``default_rng(seed).random`` does.

Each 64-bit output x becomes the double (x >> 11) * 2^-53 in [0, 1).
Products of 64-bit words are formed from their 32-bit halves, so no
product needs more than 64 bits.
"""

from __future__ import annotations

import math
import operator
from typing import List, Tuple

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# Philox4x64's multipliers and Weyl key increments (Random123)
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10

# PCG64's 128-bit LCG multiplier, and the lanes its stream is drawn in
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_LANES = 4096


def _words(n: int) -> List[int]:
    """The 32-bit words of a nonnegative integer, least significant first; [0] for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


class SeedSequence:
    """numpy's ``SeedSequence(entropy, spawn_key)`` for an integer entropy."""

    def __init__(self, entropy: int, spawn_key: Tuple[int, ...] = ()):
        self.entropy = operator.index(entropy)
        self.spawn_key = tuple(spawn_key)
        run = _words(self.entropy)
        spawn = [w for key in self.spawn_key for w in _words(key)]
        if spawn:
            # a child pads the seed to the pool, so that its key cannot
            # stand in for seed words
            run += [0] * (_POOL_SIZE - len(run))
        entropy_words = run + spawn

        hash_const = _INIT_A

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const & _MASK32
            return value ^ value >> _XSHIFT

        def mix(x: int, y: int) -> int:
            result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
            return result ^ result >> _XSHIFT

        pool = [hashmix(entropy_words[i] if i < len(entropy_words) else 0)
                for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy_words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        self.pool = pool

    def spawn(self, n_children: int) -> List["SeedSequence"]:
        """The first ``n_children`` children, child i keyed by ``spawn_key + (i,)``."""
        return [SeedSequence(self.entropy, self.spawn_key + (i,)) for i in range(n_children)]

    def generate_state(self, n_words: int) -> List[int]:
        """``generate_state(n_words, np.uint64)``, as Python ints."""
        hash_const = _INIT_B
        words = []
        for i in range(2 * n_words):
            value = self.pool[i % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const & _MASK32
            words.append(value ^ value >> _XSHIFT)
        return [words[2 * i] | words[2 * i + 1] << 32 for i in range(n_words)]


def _mulhilo(x: np.ndarray, y: int) -> Tuple[np.ndarray, np.ndarray]:
    """The high and the low 64 bits of each x * y, y < 2^64, from 32-bit halves."""
    low32 = np.uint64(_MASK32)
    x0, x1 = x & low32, x >> np.uint64(32)
    y0, y1 = np.uint64(y & _MASK32), np.uint64(y >> 32)
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    carry = (p00 >> np.uint64(32)) + (p01 & low32) + (p10 & low32)
    high = x1 * y1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (carry >> np.uint64(32))
    return high, x * np.uint64(y)


def _unit(x: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from 64-bit outputs: the top 53 bits times 2^-53."""
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def philox_random(seq: SeedSequence, shape: Tuple[int, ...]) -> np.ndarray:
    """``Generator(Philox(seq)).random(shape)``.

    The key is ``seq.generate_state(2)``.  numpy increments the 256-bit
    counter before each block, so block j (from 1) encrypts the counter
    (j, 0, 0, 0), and its four words are draws 4(j - 1) to 4j - 1.  All
    blocks are encrypted at once.
    """
    n = math.prod(shape)
    k0, k1 = seq.generate_state(2)
    blocks = -(-n // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(blocks, dtype=np.uint64)
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(c0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
    return _unit(np.stack((c0, c1, c2, c3), axis=1).ravel()[:n]).reshape(shape)


def _affine_step(
    hi: np.ndarray, lo: np.ndarray, mult: int, inc: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * mult + inc mod 2^128 for 128-bit states split into 64-bit words."""
    mult_hi, mult_lo = np.uint64(mult >> 64), np.uint64(mult & _MASK64)
    carry_hi, new_lo = _mulhilo(lo, mult & _MASK64)
    new_hi = carry_hi + lo * mult_hi + hi * mult_lo
    out_lo = new_lo + np.uint64(inc & _MASK64)
    out_hi = new_hi + np.uint64(inc >> 64) + (out_lo < new_lo)
    return out_hi, out_lo


def pcg64_random(seq: SeedSequence, shape: Tuple[int, ...]) -> np.ndarray:
    """``Generator(PCG64(seq)).random(shape)``.

    ``seq.generate_state(4)`` gives the seed s and the stream c as two
    words each.  As PCG's ``srandom``, the LCG x -> a x + b, b = 2c + 1,
    starts at x = 0, steps, adds s and steps again; then each draw steps
    and outputs the XSL-RR of the state: its two halves xor-ed, rotated
    right by its top 6 bits.

    The draws are made in up to ``_PCG_LANES`` lanes.  Lane i starts i
    steps ahead, and every lane jumps by the lane count with the composed
    map (Brown, "Random number generation with arbitrary strides", 1994),
    so each jump yields the next row of draws and the temporaries stay
    bounded at any draw count.
    """
    n = math.prod(shape)
    out = np.empty(n, dtype=np.float64)
    s0, s1, c0, c1 = seq.generate_state(4)
    inc = ((c0 << 64 | c1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    # the state of the first draw, then the lanes' states by doubling
    state = (state * _PCG_MULT + inc) & _MASK128
    hi = np.array([state >> 64], dtype=np.uint64)
    lo = np.array([state & _MASK64], dtype=np.uint64)
    mult, step = _PCG_MULT, inc
    while hi.size < min(n, _PCG_LANES):
        ahead = _affine_step(hi, lo, mult, step)
        hi, lo = np.concatenate((hi, ahead[0])), np.concatenate((lo, ahead[1]))
        mult, step = mult * mult & _MASK128, (mult * step + step) & _MASK128
    lanes = hi.size
    for start in range(0, n, lanes):
        if start:
            hi, lo = _affine_step(hi, lo, mult, step)
        rot = hi >> np.uint64(58)
        xored = hi ^ lo
        draws = xored >> rot | xored << ((np.uint64(64) - rot) & np.uint64(63))
        stop = min(start + lanes, n)
        out[start:stop] = _unit(draws[: stop - start])
    return out.reshape(shape)
