"""The registry's profile draws, without numpy.

:class:`Draw` reproduces ``numpy.random.default_rng(seed)`` bit for bit
for exactly the three calls the registry makes (``integers(lo, hi)``,
``uniform(lo, hi)``, ``choice(seq)``) by following numpy's own steps:
``SeedSequence`` hash mixing into four 64-bit words, PCG64 XSL-RR 128/64
seeding and stepping, the half-word buffer of ``next_uint32``, Lemire's
bounded integers and 53-bit doubles.  Profiles are hashed into every point
key, so a draw that diverged would only miss the cache; the pinned keys
and profile table (``tests/test_pinned_keys.py``,
``tests/test_pinned_profiles.py``) and ``tests/test_draw.py`` (numpy as
the oracle) show that none does.  It also keeps profiles independent of
numpy's ``Generator`` algorithms, which NEP 19 does not promise to keep
stable across versions.
"""

from __future__ import annotations

import math
import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def name_seed(name: str) -> int:
    """The seed of an app's profile draws: the CRC-32 of its name."""
    return zlib.crc32(name.encode())


def _pcg_seed(seed: int) -> tuple:
    """``SeedSequence(seed).generate_state(4, uint64)`` as (initstate, initseq)."""
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    entropy = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy))
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & _M32
                pool[dst] = mixed ^ mixed >> 16
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    u64 = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class Draw:
    """``numpy.random.default_rng(seed)``, reduced to three calls."""

    def __init__(self, seed: int) -> None:
        initstate, initseq = _pcg_seed(seed)
        self._inc = (initseq << 1 | 1) & _M128
        self._state = (self._inc + initstate) * _PCG_MULT + self._inc & _M128
        self._half = None  # the upper half of the last 64-bit word, unused yet

    def _next64(self) -> int:
        self._state = state = self._state * _PCG_MULT + self._inc & _M128
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def integers(self, lo: int, hi: int) -> int:
        """A uniform int in ``[lo, hi)``; the span must be below 2**32."""
        span = hi - lo
        if not 0 < span < 1 << 32:
            raise ValueError(f"integers({lo}, {hi}): span must be in [1, 2**32)")
        if span == 1:
            return lo
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (1 << 32) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return lo + (m >> 32)

    def uniform(self, lo: float, hi: float) -> float:
        """A uniform float in ``[lo, hi)``."""
        lo, hi = float(lo), float(hi)
        if not 0.0 <= hi - lo < math.inf:
            raise ValueError(f"uniform({lo}, {hi}): hi - lo must be finite and >= 0")
        return lo + (hi - lo) * ((self._next64() >> 11) * (1.0 / 9007199254740992.0))

    def choice(self, seq: Sequence[T]) -> T:
        """One element of ``seq``, drawn as ``integers(0, len(seq))``."""
        return seq[self.integers(0, len(seq))]
