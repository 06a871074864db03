"""Desk-scale executable modular reductions with CRT reconstruction.

Two pipelines, both consuming only residues of exact-evaluator answers:

* Tutte at (x, y)  →  rank-sum queries on stretch-sums of the input with a
  rooted gadget, one prime at a time, recombined by the Chinese remainder
  theorem against an a-priori magnitude bound.
* independent-set count  →  permissive-count queries on cloud blowups.

Primes are found by direct search over small candidates (never assumed to
exist): both pipelines look for their witness k with one power search.  Every
(p, k) pair is re-verified against the gadget's purity-split sums before any
congruence is trusted, and the enumeration limit applies to every table of a
witness: the stretch-sum, the gadget sums and the rank-sum query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable

from .exact import (
    _check_limit,
    biclique_gadget_closed_forms,
    count_pbis_auto,
    fan_gadget_closed_forms,
    purity_split_sums,
    r2_prime,
    random_cluster,
)
from .graphs import (
    BipartiteGraph,
    Graph,
    LimitExceededError,
    bfs_forest,
    biclique_gadget,
    cloud_blowup,
    fan_gadget,
    is_prime,
    stretch_sum,
)

DEFAULT_PRIME_CAP = 2000


class GadgetConditionError(ValueError):
    """The supplied (p, k) pair does not satisfy the gadget congruences."""


@dataclass(frozen=True)
class ModP:
    p: int
    value: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        object.__setattr__(self, "value", self.value % self.p)


def rational_mod_p(r: Fraction, p: int) -> ModP:
    """Embed a rational into Z_p: numerator times inverse denominator."""
    r = Fraction(r)
    if r.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {r} is divisible by {p}")
    return ModP(p, r.numerator * pow(r.denominator, -1, p))


def crt_reconstruct(residues: list[ModP], bound: int) -> int:
    """The unique integer L with |L| <= bound matching every residue.

    Requires pairwise-coprime moduli with product > 2 * bound; residues
    decode into the signed range (-prod/2, prod/2].
    """
    if not residues:
        raise ValueError("no residues given")
    prod = 1
    for r in residues:
        if gcd(prod, r.p) != 1:
            raise ValueError("moduli are not pairwise coprime")
        prod *= r.p
    if prod <= 2 * bound:
        raise ValueError(
            f"modulus product {prod} too small for bound {bound} (need > {2 * bound})"
        )
    x, mod = 0, 1
    for r in residues:
        # lift x (mod mod) to also satisfy x = r.value (mod r.p)
        t = ((r.value - x) * pow(mod, -1, r.p)) % r.p
        x += mod * t
        mod *= r.p
    if x > mod // 2:
        x -= mod
    if abs(x) > bound:
        raise ValueError(f"reconstructed value {x} violates the bound {bound}")
    for r in residues:
        if x % r.p != r.value:
            raise AssertionError("reconstruction does not match a residue")
    return x


def _collect_primes(
    witness: Callable[[int], int | None],
    count: int,
    prime_cap: int,
    min_product: int | None,
    what: str,
) -> list[tuple[int, int]]:
    """(p, k) for the odd primes p <= prime_cap in order whose witness(p) is
    a k rather than None: ``count`` pairs, or, if ``min_product`` is given,
    as many as it takes for the product of their primes to exceed it."""
    found: list[tuple[int, int]] = []
    prod = 1
    for p in range(3, prime_cap + 1, 2):
        k = witness(p) if is_prime(p) else None
        if k is None:
            continue
        found.append((p, k))
        prod *= p
        if (len(found) >= count) if min_product is None else (prod > min_product):
            return found
    raise ValueError(f"not enough usable primes under {prime_cap} for {what}")


def _power_search(start: int, base: int, target: int, p: int) -> int | None:
    """Least k in [1, p) with start * base^k == target (mod p), or None once
    the powers return to start."""
    power = start
    for k in range(1, p):
        power = power * base % p
        if power == target:
            return k
        if power == start:
            return None
    return None


# ---------------------------------------------------------------------------
# Gadget parameter search (Tutte pipeline)


def _conditions_hold(p: int, x: Fraction, y: Fraction) -> bool:
    """X != 0 and Y == 0 mod p, neither denominator divisible by the prime p."""
    return x.numerator * x.denominator * y.denominator % p != 0 and y.numerator % p == 0


def _gadget_for(mu: Fraction, k: int) -> tuple[BipartiteGraph, int]:
    """The biclique gadget at mu = -2, else the fan."""
    return biclique_gadget(k) if mu == -2 else fan_gadget(k)


def gadget_conditions_hold(
    lam: Fraction, mu: Fraction, p: int, k: int
) -> bool:
    """Check X != 0 and Y == 0 mod p from the gadget closed forms."""
    if mu == -2:
        return _conditions_hold(p, *biclique_gadget_closed_forms(k, lam))
    return _conditions_hold(p, *fan_gadget_closed_forms(k, lam, mu))


def find_gadget_params(
    lam: Fraction,
    mu: Fraction,
    count: int = 1,
    prime_cap: int = DEFAULT_PRIME_CAP,
    min_product: int | None = None,
) -> list[tuple[int, int]]:
    """Smallest primes p (with a witness k in [1, p-1]) making the gadget
    congruences hold for (lam, mu).

    Collects ``count`` pairs, or keeps going until the prime product exceeds
    ``min_product`` if that is given.  Refuses lam in {0, 1/2, 1} (the
    corresponding evaluation points are polynomial-time anyway) and mu = 0.
    """
    lam, mu = Fraction(lam), Fraction(mu)
    if lam in (Fraction(0), Fraction(1)) or mu == 0:
        raise ValueError("need lam outside {0,1} and mu nonzero")
    if lam == Fraction(1, 2):
        raise ValueError(
            "lam = 1/2 maps to the easy Tutte curve (x-1)(y-1)=1; refusing"
        )
    factors = lam.numerator * lam.denominator * mu.numerator * mu.denominator
    return _collect_primes(
        lambda p: None if factors % p == 0 else _gadget_witness(lam, mu, p),
        count, prime_cap, min_product, f"lam={lam}, mu={mu}",
    )


def _gadget_witness(lam: Fraction, mu: Fraction, p: int) -> int | None:
    """Smallest k in [1, p-1] making the gadget congruences hold, or None."""
    if mu == -2:
        one_minus = 1 - 1 / lam
        if one_minus.numerator % p == 0:
            return None
        target = rational_mod_p((1 / lam**2 - 3 / lam + 1) / one_minus, p).value
        if target == rational_mod_p(one_minus, p).value:
            return None
        return _power_search(1, 25 % p, target, p)
    base = rational_mod_p(mu + 1, p).value
    if base == 0:  # Y carries the factor mu + 1, and X = 1/lam there
        return 1
    # Y == 0 is (mu+1)^(k+1) == 1 - 1/lam, and then X == mu^2 != 0
    return _power_search(base, base, rational_mod_p(1 - 1 / lam, p).value, p)


def _stretched(
    h: Graph, mu: Fraction, k: int, max_edges: int | None
) -> tuple[BipartiteGraph, int, BipartiteGraph]:
    """(gadget, root, stretch-sum of h) for witness k, the stretch-sum
    refused past the enumeration limit before any table is built."""
    gadget, root = _gadget_for(mu, k)
    g = stretch_sum(h, gadget, root)
    _check_limit(g.m, max_edges)
    return gadget, root, g


def _verified_x(
    p: int, k: int, lam: Fraction, sums: tuple[Fraction, Fraction]
) -> Fraction:
    """X of the gadget from its purity-split sums (Z_pure, Z_mixed), after
    re-checking X != 0 and Y == 0 mod p."""
    x_val = lam * sums[0]
    if not _conditions_hold(p, x_val, x_val + sums[1]):
        raise GadgetConditionError(
            f"(p={p}, k={k}) fails the gadget congruence conditions"
        )
    return x_val


# ---------------------------------------------------------------------------
# Stretch-sum congruence (one prime)


def verify_reduction_congruence(
    h: Graph,
    lam: Fraction,
    mu: Fraction,
    p: int,
    k: int,
    max_edges: int | None = None,
) -> bool:
    """Check, by full enumeration on the stretch-sum G of h with the rooted
    gadget, that the rank sum of G equals
    lam^(n * |U_gadget|) * X^n * Z(h; 1/lam - 1, mu^2) mod p.

    The stretch-sum is refused past the enumeration limit first; the gadget
    pair (p, k) is then re-verified from the gadget's own purity-split sums,
    and a failure there raises GadgetConditionError rather than reporting a
    congruence mismatch.
    """
    lam, mu = Fraction(lam), Fraction(mu)
    gadget, root, g = _stretched(h, mu, k, max_edges)
    x_val = _verified_x(p, k, lam, purity_split_sums(gadget, root, lam, mu, max_edges))
    lhs = r2_prime(g, lam, mu, max_edges).value
    n_u = len(gadget.side_u)
    rhs = (
        lam ** (h.n * n_u)
        * x_val**h.n
        * random_cluster(h, 1 / lam - 1, mu * mu).value
    )
    return rational_mod_p(lhs, p) == rational_mod_p(rhs, p)


# ---------------------------------------------------------------------------
# Pipelines


@dataclass(frozen=True)
class ReductionCert:
    """Everything needed to audit one CRT reconstruction."""

    primes: tuple[int, ...]
    ks: tuple[int, ...]
    residues: tuple[int, ...]
    reconstructed: int
    bound: int
    value: Fraction = field(default=Fraction(0))

    def to_dict(self) -> dict:
        return {
            "primes": list(self.primes),
            "ks": list(self.ks),
            "residues": list(self.residues),
            "reconstructed": self.reconstructed,
            "bound": self.bound,
            "value": f"{self.value.numerator}/{self.value.denominator}",
        }


def _certify(
    pairs: list[tuple[int, int]], residues: list[ModP], bound: int, scale: Fraction
) -> ReductionCert:
    """CRT-reconstruct the integer L from the residues against ``bound``;
    the certificate's value is scale * L."""
    big_l = crt_reconstruct(residues, bound)
    return ReductionCert(
        tuple(p for p, _ in pairs),
        tuple(k for _, k in pairs),
        tuple(r.value for r in residues),
        big_l,
        bound,
        scale * big_l,
    )


def _rational_square_root(y: Fraction) -> Fraction | None:
    if y < 0:
        return None
    rn, rd = isqrt(y.numerator), isqrt(y.denominator)
    if rn * rn == y.numerator and rd * rd == y.denominator:
        return Fraction(rn, rd)
    return None


def tutte_via_oracle(
    h: Graph,
    x: Fraction,
    y: Fraction,
    prime_cap: int = DEFAULT_PRIME_CAP,
    max_edges: int | None = None,
) -> tuple[Fraction, ReductionCert]:
    """Tutte polynomial of h at (x, y) recovered purely from rank-sum
    residues on gadget stretch-sums, via (x-1)(y-1) = 1/lam - 1 and
    y - 1 = mu^2.

    Returns (value, certificate); the value must equal :func:`tutte` exactly.
    """
    x, y = Fraction(x), Fraction(y)
    mu = _rational_square_root(y - 1)
    if mu is None or mu == 0:
        raise ValueError("y - 1 must be a positive rational square")
    denom = (x - 1) * (y - 1) + 1
    if denom == 0:
        raise ValueError("(x-1)(y-1) = -1 has no matching weight")
    lam = 1 / denom
    if lam in (Fraction(0), Fraction(1), Fraction(1, 2)):
        raise ValueError(
            f"parameters map to the excluded easy weight lam={lam}"
        )
    n, m = h.n, h.m
    a, b = lam.numerator, lam.denominator
    c, d = mu.numerator, mu.denominator
    bound = 2**m * abs(b - a) ** n * abs(a) ** n * abs(c) ** (2 * m) * abs(d) ** (2 * m)
    pairs = find_gadget_params(lam, mu, prime_cap=prime_cap, min_product=2 * bound)

    # Witnesses k repeat across primes; every stretch-sum is refused past the
    # limit before any table is built, then each distinct witness gets one
    # record: the gadget's |U|, its purity-split sums and the one query.
    stretched = {k: _stretched(h, mu, k, max_edges) for k in dict.fromkeys(k for _, k in pairs)}
    records = {
        k: (
            len(gadget.side_u),
            purity_split_sums(gadget, root, lam, mu, max_edges),
            r2_prime(g, lam, mu, max_edges).value,
        )
        for k, (gadget, root, g) in stretched.items()
    }
    residues: list[ModP] = []
    for p, k in pairs:
        n_u, sums, query = records[k]
        x_val = _verified_x(p, k, lam, sums)
        # L = a^n d^(2m) lam^(-n|U|) X^(-n) * query  (mod p)
        factor = Fraction(a**n * d ** (2 * m)) / (lam ** (n * n_u) * x_val**n)
        residues.append(rational_mod_p(factor * query, p))

    kappa_full = len(bfs_forest(h)[0])
    scale = (x - 1) ** (-kappa_full) * (y - 1) ** (-n) / (a**n * d ** (2 * m))
    cert = _certify(pairs, residues, bound, scale)
    return cert.value, cert


def find_pbis_params(
    eta: Fraction,
    count: int = 1,
    prime_cap: int = DEFAULT_PRIME_CAP,
    min_product: int | None = None,
    cloud_safe: bool = False,
) -> list[tuple[int, int]]:
    """Primes p > 2 with a witness k in [1, p-1] such that
    ((1+eta)/(1-eta))^(2k) = -1 mod p, smallest k per prime.

    With ``cloud_safe`` only k = 1 witnesses are returned.  The cloud
    congruence needs every partial-cloud binomial C(kp, h), 0 < h < kp, to
    vanish mod p, which holds exactly when kp is a power of p; already the
    edgeless single-vertex instance separates 2^(kp) = 2^k from 2 mod p for
    other k.  Witnesses k = p^j exist iff the k = 1 witness does, so k = 1
    loses nothing except cloud size.
    """
    eta = Fraction(eta)
    if eta in (Fraction(0), Fraction(1), Fraction(-1)):
        raise ValueError("eta must avoid {0, 1, -1}")
    ratio = (1 + eta) / (1 - eta)
    factors = eta.numerator * eta.denominator * (eta - 1).numerator * (eta + 1).numerator

    def witness(p: int) -> int | None:
        if factors % p == 0:
            return None
        r = rational_mod_p(ratio, p).value
        k = _power_search(1, r * r % p, p - 1, p)
        return k if not cloud_safe or k == 1 else None

    what = f"eta={eta}"
    if cloud_safe:  # r^2 = -1 mod p for r = a/b: p divides a^2 + b^2
        a, b = abs(ratio.numerator), ratio.denominator
        what += f"; cloud-safe primes divide {a}^2 + {b}^2 = {a * a + b * b}"
    return _collect_primes(witness, count, prime_cap, min_product, what)


def bis_via_pbis_oracle(
    g: Graph,
    eta: Fraction,
    prime_cap: int = DEFAULT_PRIME_CAP,
) -> tuple[int, ReductionCert]:
    """Independent-set count of g recovered from permissive-count residues
    on cloud blowups, one prime at a time, recombined by CRT against the
    trivial bound 2^n."""
    eta = Fraction(eta)
    bound = 2**g.n
    pairs = find_pbis_params(
        eta, prime_cap=prime_cap, min_product=2 * bound, cloud_safe=True
    )
    residues: list[ModP] = []
    for p, k in pairs:
        blown = cloud_blowup(g, p, k)
        try:
            q = count_pbis_auto(blown, eta)
        except LimitExceededError as exc:
            raise LimitExceededError(
                f"cloud graph for p={p}, k={k} too large: {exc}"
            ) from exc
        residues.append(rational_mod_p(q, p))
    cert = _certify(pairs, residues, bound, Fraction(1))
    return cert.reconstructed, cert
