"""Modular embeddings, CRT, gadget parameter search, and both pipelines."""

from __future__ import annotations

from fractions import Fraction as F
from math import gcd

import pytest

from rankpoly.exact import (
    count_bis_oracle,
    count_pbis_oracle,
    count_pbis_twins,
    purity_split_sums,
    tutte,
)
from rankpoly.graphs import (
    LimitExceededError,
    biclique_gadget,
    cloud_blowup,
    complete_graph,
    cycle_graph,
    fan_gadget,
    path_graph,
)
from rankpoly import reductions
from rankpoly.reductions import (
    GadgetConditionError,
    ModP,
    bis_via_pbis_oracle,
    crt_reconstruct,
    find_gadget_params,
    find_pbis_params,
    gadget_conditions_hold,
    rational_mod_p,
    tutte_via_oracle,
    verify_reduction_congruence,
)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


class TestRationalModP:
    def test_half_mod_five(self):
        assert rational_mod_p(F(1, 2), 5).value == 3

    def test_noninvertible_denominator(self):
        with pytest.raises(ZeroDivisionError):
            rational_mod_p(F(1, 3), 3)

    def test_minus_two_sevenths_mod_eleven(self):
        # oracle: extended gcd inverse of 7 mod 11
        _, inv, _ = egcd(7, 11)
        expect = (-2 * inv) % 11
        assert rational_mod_p(F(-2, 7), 11).value == expect

    def test_modp_requires_prime(self):
        with pytest.raises(ValueError, match="prime"):
            ModP(6, 1)


class TestCrt:
    def test_simple(self):
        assert crt_reconstruct([ModP(3, 1), ModP(5, 1)], 5) == 1

    def test_product_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            crt_reconstruct([ModP(3, 2), ModP(5, 3)], 10)

    def test_signed_range(self):
        assert crt_reconstruct([ModP(3, 2), ModP(5, 3), ModP(7, 0)], 10) == -7

    def test_round_trip(self, rng):
        primes = [3, 5, 7, 11, 13, 17, 19, 23]
        for _ in range(200):
            value = rng.randint(-(10**6), 10**6)
            residues = [ModP(p, value % p) for p in primes]
            assert crt_reconstruct(residues, 10**6) == value

    def test_coprimality_enforced(self):
        with pytest.raises(ValueError, match="coprime"):
            crt_reconstruct([ModP(3, 1), ModP(3, 1)], 1)


class TestFindGadgetParams:
    def test_third_one_gives_five_two(self):
        # 2^(k+1) + 3 - 1 = 0 mod 5 first at k = 2
        assert find_gadget_params(F(1, 3), F(1), count=1) == [(5, 2)]

    def test_witnesses_satisfy_condition_directly(self):
        for p, k in find_gadget_params(F(1, 3), F(1), count=3):
            lhs = (F(2)) ** (k + 1) + 3 - 1
            assert rational_mod_p(lhs, p).value == 0

    def test_half_refused(self):
        with pytest.raises(ValueError, match="1/2"):
            find_gadget_params(F(1, 2), F(1))

    def test_zero_one_mu_zero_refused(self):
        with pytest.raises(ValueError):
            find_gadget_params(F(0), F(1))
        with pytest.raises(ValueError):
            find_gadget_params(F(1), F(1))
        with pytest.raises(ValueError):
            find_gadget_params(F(1, 3), F(0))

    def test_mu_minus_one_every_prime_works(self):
        pairs = find_gadget_params(F(1, 3), F(-1), count=4)
        assert [p for p, _ in pairs] == [5, 7, 11, 13]  # 3 divides the weight
        assert all(k == 1 for _, k in pairs)

    def test_mu_minus_two_branch(self):
        # weight -1 admits p=3: the biclique condition reduces to 5/2 = 25^k mod 3
        pairs = find_gadget_params(F(-1), F(-2), count=1, prime_cap=50)
        assert pairs[0] == (3, 1)
        assert gadget_conditions_hold(F(-1), F(-2), 3, 1)

    def test_min_product_stops_once_exceeded(self):
        # 5 * 7 = 35 does not exceed 35, so 11 is taken too
        pairs = find_gadget_params(F(1, 3), F(-1), min_product=35)
        assert pairs == [(5, 1), (7, 1), (11, 1)]

    def test_not_enough_primes_names_the_parameters(self):
        with pytest.raises(ValueError, match=r"not enough usable primes under 30 for lam=1/3, mu=1$"):
            find_gadget_params(F(1, 3), F(1), count=50, prime_cap=30)
        with pytest.raises(ValueError, match=r"not enough usable primes under 20 for eta=3$"):
            find_pbis_params(F(3), count=10, prime_cap=20)

    def test_witness_is_the_least_k_meeting_the_conditions(self):
        # brute force over the closed-form conditions themselves, including
        # primes where mu + 1 == 0 (mod p): Y carries that factor, so k = 1
        primes = [p for p in range(3, 100, 2) if all(p % q for q in range(3, p, 2))]
        for lam in (F(1, 3), F(-2), F(-5, 4), F(3, 7), F(-1, 6)):
            for mu in (F(1), F(-1), F(-2), F(4), F(2, 3), F(-3, 5)):
                factors = lam.numerator * lam.denominator * mu.numerator * mu.denominator
                for p in primes:
                    if factors % p == 0:
                        continue
                    brute = next(
                        (k for k in range(1, p) if gadget_conditions_hold(lam, mu, p, k)), None
                    )
                    assert reductions._gadget_witness(lam, mu, p) == brute, (lam, mu, p)

    def test_mu_plus_one_divisible_by_p_is_admitted(self):
        assert find_gadget_params(F(1, 3), F(4), count=3) == [(5, 1), (7, 6), (11, 3)]
        for h in (path_graph(2), path_graph(3), complete_graph(3)):
            assert verify_reduction_congruence(h, F(1, 3), F(4), 5, 1)

    def test_conditions_match_purity_sums(self):
        # closed-form check used by the search == enumerated gadget sums
        for (lam, mu, p, k) in ((F(1, 3), F(1), 5, 2), (F(-1), F(-2), 3, 1)):
            gadget, root = biclique_gadget(k) if mu == -2 else fan_gadget(k)
            zp, zm = purity_split_sums(gadget, root, lam, mu)
            x, y = lam * zp, lam * zp + zm
            assert gadget_conditions_hold(lam, mu, p, k)
            assert rational_mod_p(y, p).value == 0
            assert rational_mod_p(x, p).value != 0


class TestCongruence:
    def test_p3_and_k3_at_spec_point(self):
        for h in (path_graph(3), complete_graph(3)):
            assert verify_reduction_congruence(h, F(1, 3), F(1), 5, 2)

    def test_wrong_k_reported_as_precondition(self):
        with pytest.raises(GadgetConditionError):
            verify_reduction_congruence(path_graph(3), F(1, 3), F(1), 5, 3)

    def test_limit_reported_distinctly(self):
        with pytest.raises(LimitExceededError):
            verify_reduction_congruence(
                complete_graph(3), F(1, 3), F(1), 5, 2, max_edges=10
            )

    def test_biclique_branch_congruence(self):
        assert verify_reduction_congruence(path_graph(2), F(-1), F(-2), 3, 1)


class TestTuttePipeline:
    POINTS = ((F(-3), F(2)), (F(-5, 4), F(5)))

    @pytest.mark.parametrize("x,y", POINTS)
    def test_matches_direct_evaluation(self, x, y):
        for h in (path_graph(2), path_graph(3), complete_graph(3)):
            value, cert = tutte_via_oracle(h, x, y)
            assert value == tutte(h, x, y)
            assert abs(cert.reconstructed) <= cert.bound
            prod = 1
            for p in cert.primes:
                prod *= p
            assert prod > 2 * cert.bound

    def test_k2_recovers_x(self):
        value, _ = tutte_via_oracle(path_graph(2), F(-3), F(2))
        assert value == F(-3)

    def test_k2_at_4_2(self):
        # (4,2) maps to lam=1/4, mu=1; single-edge value is x
        value, cert = tutte_via_oracle(path_graph(2), F(4), F(2))
        assert value == 4
        assert all(1 <= k < p for p, k in zip(cert.primes, cert.ks))

    def test_p3_at_4_2(self):
        value, _ = tutte_via_oracle(path_graph(3), F(4), F(2), max_edges=24)
        assert value == tutte(path_graph(3), F(4), F(2)) == 16

    def test_non_square_y_rejected(self):
        with pytest.raises(ValueError, match="square"):
            tutte_via_oracle(complete_graph(3), F(2), F(4))

    def test_easy_curve_rejected(self):
        # (x-1)(y-1) = 1 maps to lam = 1/2
        with pytest.raises(ValueError, match="lam=1/2"):
            tutte_via_oracle(path_graph(2), F(2), F(2))

    def test_y_one_rejected(self):
        with pytest.raises(ValueError, match="square"):
            tutte_via_oracle(path_graph(2), F(3), F(1))

    def test_one_query_per_distinct_witness(self, monkeypatch):
        calls = []
        real = reductions.r2_prime

        def counted(g, *args):
            calls.append(g.m)
            return real(g, *args)

        monkeypatch.setattr(reductions, "r2_prime", counted)
        value, cert = tutte_via_oracle(complete_graph(3), F(-3), F(2))
        assert value == tutte(complete_graph(3), F(-3), F(2))
        assert cert.ks == (1, 1, 1, 1) and len(calls) == 1

    def test_limit_fails_before_any_enumeration(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("enumerated past a known limit")

        monkeypatch.setattr(reductions, "r2_prime", forbidden)
        monkeypatch.setattr(reductions, "purity_split_sums", forbidden)
        with pytest.raises(LimitExceededError, match="27 edges exceeds enumeration limit 26"):
            tutte_via_oracle(complete_graph(3), F(3), F(5))

    def test_explicit_limit_reaches_the_gadget_sums(self):
        # witness (37, 31) is a 33-edge fan, past the default limit of 26
        x, y = F(-6), F(2)
        value, cert = tutte_via_oracle(path_graph(5), x, y, max_edges=5000)
        assert value == tutte(path_graph(5), x, y)
        assert (37, 31) in zip(cert.primes, cert.ks)
        assert verify_reduction_congruence(path_graph(2), F(-1, 6), F(1), 37, 31, max_edges=5000)

    def test_certificate_residues_consistent(self):
        value, cert = tutte_via_oracle(path_graph(3), F(-3), F(2))
        for p, r in zip(cert.primes, cert.residues):
            assert cert.reconstructed % p == r % p


class TestPbisParams:
    def test_eta_three_search_matches_brute_force(self):
        # independent brute force over the congruence itself
        def brute(p):
            ratio = rational_mod_p(F(4, -2), p).value
            for k in range(1, p):
                if pow(ratio, 2 * k, p) == p - 1:
                    return k
            return None

        pairs = find_pbis_params(F(3), count=4, prime_cap=200)
        assert pairs == [(5, 1), (13, 3), (17, 2), (29, 7)]
        for p, k in pairs:
            assert brute(p) == k

    def test_witnesses_match_brute_force_over_primes(self):
        primes = [p for p in range(3, 200, 2) if all(p % q for q in range(3, p, 2))]
        for eta in (F(3), F(7, 9), F(-2, 5), F(1, 4)):
            ratio = (1 + eta) / (1 - eta)
            excluded = eta.numerator * eta.denominator * (eta - 1).numerator * (eta + 1).numerator
            for cloud_safe in (False, True):
                expected = []
                for p in (p for p in primes if excluded % p):
                    r = rational_mod_p(ratio, p).value
                    k = next((j for j in range(1, p) if pow(r, 2 * j, p) == p - 1), None)
                    if k is not None and (k == 1 or not cloud_safe):
                        expected.append((p, k))
                assert find_pbis_params(
                    eta, count=len(expected), prime_cap=200, cloud_safe=cloud_safe
                ) == expected

    def test_cloud_safe_restricts_to_k1(self):
        assert find_pbis_params(F(3), count=1, prime_cap=200, cloud_safe=True) == [
            (5, 1)
        ]
        assert find_pbis_params(F(7, 9), count=2, prime_cap=200, cloud_safe=True) == [
            (5, 1),
            (13, 1),
        ]

    def test_excluded_eta(self):
        for eta in (F(0), F(1), F(-1)):
            with pytest.raises(ValueError):
                find_pbis_params(eta)


class TestCloudCongruence:
    def test_psi_cases_for_found_params(self):
        eta = F(7, 9)
        for p, k in find_pbis_params(eta, count=2, cloud_safe=True):
            up, down = 1 + eta, 1 - eta
            def psi(x, y):
                def chi(a, b):
                    return 1 if a == 1 and b == 1 else -1
                inner = (1 + eta * chi(x, 0)) ** (k * p) * (1 + eta * chi(y, 0)) ** (
                    k * p
                ) + (1 + eta * chi(x, 1)) ** (k * p) * (1 + eta * chi(y, 1)) ** (k * p)
                return inner ** (p - 1)
            assert rational_mod_p(psi(1, 1), p).value == 0
            assert rational_mod_p(psi(0, 0), p).value == 1
            assert rational_mod_p(psi(1, 0), p).value == 1

    def test_cloud_symmetry_collapse_k2_p3(self):
        # full labeling sum vs uniform-cloud-only labelings, mod 3
        g = path_graph(2)
        p, k = 3, 1
        eta = F(1, 2)  # any eta invertible mod p works for the collapse step
        blown = cloud_blowup(g, p, k)
        full = count_pbis_oracle(blown, eta)
        # restricted: each vertex cloud uniformly labeled (edge-cloud
        # vertices stay free; only vertex clouds collapse)
        vertex_clouds = [list(range(0, 3)), list(range(3, 6))]
        restricted = F(0)
        for labeling in range(1 << blown.n):
            if any(
                len({(labeling >> v) & 1 for v in cl}) != 1 for cl in vertex_clouds
            ):
                continue
            w = sum(
                1
                for u, v in blown.graph.edges
                if (labeling >> u) & 1 and (labeling >> v) & 1
            )
            restricted += (1 + eta) ** w * (1 - eta) ** (blown.m - w)
        assert rational_mod_p(full, p) == rational_mod_p(restricted, p)

    def test_congruence_fails_for_non_collapsing_k(self):
        # the recorded counterexample: witness k=2 at p=17 for eta=3
        g = path_graph(2)
        blown = cloud_blowup(g, 17, 2)
        q = count_pbis_twins(blown, F(3))
        assert rational_mod_p(q, 17).value != count_bis_oracle(g) % 17

    def test_congruence_holds_for_k1_witnesses(self):
        g = path_graph(2)
        eta = F(7, 9)
        for p, k in ((5, 1), (13, 1)):
            blown = cloud_blowup(g, p, k)
            q = count_pbis_twins(blown, eta)
            assert rational_mod_p(q, p).value == count_bis_oracle(g) % p


class TestBisPipeline:
    def test_k2_and_p3(self):
        for g in (path_graph(2), path_graph(3)):
            value, cert = bis_via_pbis_oracle(g, F(7, 9))
            assert value == count_bis_oracle(g)
            assert cert.ks == tuple(1 for _ in cert.primes)

    @pytest.mark.parametrize("g, count", [(path_graph(5), 13), (cycle_graph(4), 7)])
    def test_past_the_twin_class_budget(self, g, count):
        # the budget counts only the twin classes that are enumerated
        value, cert = bis_via_pbis_oracle(g, F(7, 9))
        assert value == count == count_bis_oracle(g)
        for p, r in zip(cert.primes, cert.residues):
            assert cert.reconstructed % p == r
        assert abs(cert.reconstructed) <= cert.bound

    def test_eta_one_rejected(self):
        with pytest.raises(ValueError):
            bis_via_pbis_oracle(path_graph(2), F(1))

    def test_not_enough_cloud_safe_primes(self):
        # eta=3 has a single collapse-safe prime (5); the bound needs more
        with pytest.raises(ValueError, match="not enough"):
            bis_via_pbis_oracle(path_graph(2), F(3))


def test_one_gadget_check():
    hold = reductions._conditions_hold
    assert hold(5, F(2, 3), F(10, 7))
    assert not hold(5, F(5, 3), F(10, 7))  # X == 0 mod p
    assert not hold(5, F(2, 3), F(11, 7))  # Y != 0 mod p
    assert not hold(5, F(2, 15), F(10, 7))  # p divides a denominator
    assert not hold(5, F(2, 3), F(10, 35))
    for lam, mu in ((F(1, 3), F(1)), (F(-1), F(-2)), (F(2, 5), F(3))):
        for p in (3, 5, 7, 11):
            for k in range(1, 4):
                gadget, root = reductions._gadget_for(mu, k)
                zp, zm = purity_split_sums(gadget, root, lam, mu)
                assert gadget_conditions_hold(lam, mu, p, k) == hold(p, lam * zp, lam * zp + zm)
