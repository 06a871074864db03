"""Seedable, splittable 64-bit generator with exact Bernoulli draws.

The generator is SplitMix64: state advances by the 64-bit golden-ratio
constant and each output is a finalizing hash of the state.  Stream
semantics: ``next_u64`` consumes one step; ``split`` consumes one step of
the parent and seeds the child with that output xor a fixed constant, so
parent and child streams are decorrelated and both remain reproducible.

Bounded draws use rejection on the top bits (never a modulus), so they are
exactly uniform; ``randrange_from`` finishes a draw whose first word the
caller has already taken.  ``bernoulli`` compares an exact-rational
probability against a uniform integer, so acceptance tests never round.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SPLIT_XOR = 0x5851F42D4C957F2D


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next_u64() ^ _SPLIT_XOR)

    def randbits(self, k: int) -> int:
        return self._bits(0, 0, k)

    def _bits(self, out: int, got: int, k: int) -> int:
        """The top k bits of ``out`` (``got`` bits long) followed by fresh words."""
        while got < k:
            out = (out << 64) | self.next_u64()
            got += 64
        return out >> (got - k)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("empty range")
        if n == 1:
            return 0
        return self.randrange_from(n, self.next_u64())

    def randrange_from(self, n: int, word: int) -> int:
        """The value ``randrange(n)`` returns, for n >= 2, when its first
        ``next_u64()`` gives ``word``: a caller that has drawn the word
        already may decide from it alone when its first try is valid."""
        k = (n - 1).bit_length()
        if k <= 64:  # one word per try, the value randbits(k) would give
            shift = 64 - k
            v = word >> shift
            while v >= n:
                v = self.next_u64() >> shift
            return v
        v = self._bits(word, 64, k)
        while v >= n:
            v = self.randbits(k)
        return v

    def bernoulli(self, p: Fraction) -> bool:
        """True with probability exactly p (0 <= p <= 1)."""
        if p <= 0:
            return False
        if p >= 1:
            return True
        return self.randrange(p.denominator) < p.numerator
