"""Seedable, splittable 64-bit generator with exact Bernoulli draws.

The generator is SplitMix64: state advances by the 64-bit golden-ratio
constant and each output is a finalizing hash of the state.  Stream
semantics: ``next_u64`` consumes one step; ``split`` consumes one step of
the parent and seeds the child with that output xor a fixed constant, so
parent and child streams are decorrelated and both remain reproducible.

SplitMix64 is counter-based: the j-th word after state s is the hash of
s + j * gamma.  So ``words(k)`` computes the next k words at once, as one
packed integer with a 128-bit lane per word (a lane's 64 x 64-bit product
stays in its lane), and ``unread(k)`` hands back the last k words drawn
exactly, by stepping the state back k * gamma; ``words_since`` counts the
words drawn since a given state.  ``next_u64`` is the one-word reference
the block must equal.

Bounded draws use rejection on the top bits (never a modulus), so they are
exactly uniform; ``randrange_from`` finishes a draw whose first word the
caller has already taken.  ``bernoulli`` compares an exact-rational
probability against a uniform integer, so acceptance tests never round.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_INVERSE = pow(_GAMMA, -1, 1 << 64)
_SPLIT_XOR = 0x5851F42D4C957F2D

BLOCK = 1024  # most words one packed block computes
# Lane i of a block (bits 128i .. 128i + 127): a 1, the low-64-bit mask, and
# (i + 1) * gamma, which is below 2^64 * BLOCK, so no lane carries into the next.
_ONES = int.from_bytes((b"\x01" + bytes(15)) * BLOCK, "little")
_LANES = _ONES * _MASK
_index = array("Q", bytes(16 * BLOCK))
_index[::2] = array("Q", range(1, BLOCK + 1))
if sys.byteorder == "big":
    _index.byteswap()
_STEPS = int.from_bytes(_index.tobytes(), "little") * _GAMMA
del _index


def _block(state: int, k: int) -> list[int]:
    """The k words ``next_u64`` gives after ``state``, 0 < k <= BLOCK.

    Each round of the hash masks the lanes before its multiply, since the
    shift brings the next lane's low bits into the high half of this one."""
    if k == BLOCK:
        ones, steps, lanes = _ONES, _STEPS, _LANES
    else:
        cut = (1 << (128 * k)) - 1
        ones, steps, lanes = _ONES & cut, _STEPS & cut, _LANES & cut
    z = (state * ones + steps) & lanes
    z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
    z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
    z ^= z >> 31  # the high halves it spoils are not read
    out = array("Q", z.to_bytes(16 * k, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out[::2].tolist()


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def words(self, k: int) -> list[int]:
        """The next k words, as k ``next_u64`` calls would give them, and
        the state moved on by k."""
        out: list[int] = []
        while k > 0:
            n = min(k, BLOCK)
            out += _block(self.state, n)
            self.state = (self.state + n * _GAMMA) & _MASK
            k -= n
        return out

    def unread(self, k: int) -> None:
        """Hand back the last k words drawn: the next k draws repeat them.
        A negative k skips -k words ahead."""
        self.state = (self.state - k * _GAMMA) & _MASK

    def words_since(self, state: int) -> int:
        """How many words were drawn since the generator stood at ``state``
        (fewer than 2^64): gamma is odd, so it is invertible mod 2^64."""
        return (self.state - state) * _GAMMA_INVERSE & _MASK

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
