"""SplitMix64 bounded draws, block draws and unread words."""

from __future__ import annotations

import random

import pytest

from rankpoly.rng import BLOCK, SplitMix64


def randrange_by_randbits(gen: SplitMix64, n: int) -> int:
    k = (n - 1).bit_length()
    while True:
        v = gen.randbits(k) if k else 0
        if v < n:
            return v


def test_randrange_is_rejection_on_randbits():
    sizes = [1, 2, 3, 7, 8, 9, 60, 1000, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1, 3**50]
    fast, slow = SplitMix64(5), SplitMix64(5)
    for _ in range(50):
        for n in sizes:
            assert fast.randrange(n) == randrange_by_randbits(slow, n)
    assert fast.state == slow.state


def test_randrange_from_finishes_the_draw_of_its_first_word():
    sizes = [2, 3, 2**5, 2**5 + 1, 2**63, 2**63 + 1, 2**64, 2**64 + 1, 2**70 + 1]
    for seed in range(40):
        whole, split = SplitMix64(seed), SplitMix64(seed)
        for n in sizes:
            assert split.randrange_from(n, split.next_u64()) == whole.randrange(n)
            assert split.state == whole.state


def test_randrange_of_one_draws_nothing():
    gen = SplitMix64(9)
    state = gen.state
    assert gen.randrange(1) == 0 and gen.state == state


GAMMA = 0x9E3779B97F4A7C15
EDGE_SEEDS = [0, 1, 2**64 - 1, 2**64 - GAMMA, 2**63, GAMMA]
BLOCK_SIZES = [0, 1, 2, 63, 64, 65, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


@pytest.mark.parametrize("k", BLOCK_SIZES)
def test_words_are_the_next_u64_words(k):
    seeds = EDGE_SEEDS + [random.Random(k).getrandbits(64) for _ in range(4)]
    for seed in seeds:
        block, single = SplitMix64(seed), SplitMix64(seed)
        expected = [single.next_u64() for _ in range(k)]
        assert block.words(k) == expected, seed
        assert block.state == single.state
        assert block.next_u64() == single.next_u64()


def test_words_in_pieces_equal_one_draw():
    whole, pieces = SplitMix64(77), SplitMix64(77)
    expected = whole.words(3 * BLOCK)
    got = []
    for k in (1, 5, 64, BLOCK - 70, 0, BLOCK, 1, BLOCK - 1):
        got += pieces.words(k)
    assert got == expected and pieces.state == whole.state


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_unread_repeats_the_words_handed_back(seed):
    gen = SplitMix64(seed)
    first = gen.words(BLOCK + 1)
    for k in (0, 1, 64, BLOCK + 1):
        gen.unread(k)
        assert gen.words(k) == first[len(first) - k:]
    gen.unread(BLOCK + 1)
    assert gen.state == seed
    gen.unread(-3)  # skips ahead
    assert gen.next_u64() == first[3]


def test_words_since_counts_the_draws():
    for seed in EDGE_SEEDS:
        gen = SplitMix64(seed)
        for k in (0, 1, 5, BLOCK + 1):
            start = gen.state
            gen.words(k)
            gen.randrange(2**70 + 1)  # one or more tries of two words each
            drawn = gen.words_since(start) - k
            gen.unread(drawn)
            assert drawn >= 2 and drawn % 2 == 0 and gen.words_since(start) == k
