"""SplitMix64 bounded draws."""

from __future__ import annotations

from rankpoly.rng import SplitMix64


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
