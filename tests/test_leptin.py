"""Leptin ratios, closed forms, searches and certificates."""

from fractions import Fraction

import pytest

from hypergroups import (
    CapacityError,
    LabelDomainError,
    UsageError,
    builtin_table,
    finite_group_dual,
    leptin_product,
    leptin_ratio,
    leptin_search_exhaustive,
    leptin_search_greedy,
    leptin_search_interval,
    product_dual,
    su2_interval_ratio,
)
from hypergroups.leptin import certificate_from_json_dict, twice_spin

half = Fraction(1, 2)


class TestLeptinRatio:
    def test_su2_interval_example(self, su2):
        assert leptin_ratio(su2, {1}, {0, 1, 2}) == Fraction(30, 14)

    def test_identity_k_gives_one(self, su2, s3):
        assert leptin_ratio(su2, {0}, {0, 1, 2, 5}) == 1
        assert leptin_ratio(s3, {s3.identity}, set(s3.universe)) == 1

    def test_full_universe_gives_one(self, s3, q8):
        for H in (s3, q8):
            assert leptin_ratio(H, set(H.universe), set(H.universe)) == 1

    def test_empty_sets_rejected(self, su2):
        with pytest.raises(UsageError):
            leptin_ratio(su2, {0}, set())
        with pytest.raises(UsageError):
            leptin_ratio(su2, set(), {0})


class TestIntervalClosedForm:
    def test_spot_values(self):
        assert su2_interval_ratio(half, 1) == Fraction(30, 14)
        assert su2_interval_ratio(0, 7) == 1
        assert su2_interval_ratio(1, 10) == Fraction(4324, 3311)

    def test_m_below_k_rejected(self):
        with pytest.raises(UsageError):
            su2_interval_ratio(2, 1)

    def test_non_half_integer_rejected(self):
        with pytest.raises(UsageError):
            su2_interval_ratio(Fraction(1, 3), 1)
        with pytest.raises(UsageError):
            twice_spin(-1)

    def test_matches_enumeration(self, su2):
        # cross-validation of the closed form against the direct oracle
        for k2 in range(0, 9):
            for m2 in range(k2, 9):
                closed = su2_interval_ratio(Fraction(k2, 2), Fraction(m2, 2))
                direct = leptin_ratio(su2, range(k2 + 1), range(m2 + 1))
                assert closed == direct

    def test_nonincreasing_in_m_and_tends_to_one(self):
        for k2 in (1, 2, 6):
            previous = None
            for m2 in range(k2, 101):  # m up to 50 in spin units
                value = su2_interval_ratio(Fraction(k2, 2), Fraction(m2, 2))
                if previous is not None:
                    assert value <= previous
                previous = value
            far_out = su2_interval_ratio(Fraction(k2, 2), Fraction(2000, 2))
            assert far_out < previous and far_out < Fraction(101, 100)


class TestIntervalSearch:
    def test_minimal_interval_for_eps_two(self):
        cert = leptin_search_interval(half, 2)
        # scan over m = 1/2, 1, ...: already m = 1/2 meets the bound
        assert max(cert.V) == 1
        assert cert.ratio == Fraction(14, 5)
        assert cert.verified

    def test_identity_k(self):
        cert = leptin_search_interval(0, Fraction(1, 100))
        assert list(cert.V) == [0]
        assert cert.ratio == 1

    def test_minimality(self):
        cert = leptin_search_interval(1, Fraction(1, 10))
        m2 = max(cert.V)
        assert cert.ratio < Fraction(11, 10)
        assert su2_interval_ratio(1, Fraction(m2 - 1, 2)) >= Fraction(11, 10)

    def test_epsilon_must_be_exact_and_positive(self):
        with pytest.raises(UsageError):
            leptin_search_interval(1, 0.1)
        with pytest.raises(UsageError):
            leptin_search_interval(1, 0)


class TestGreedySearch:
    def test_s3_around_rho(self, s3):
        cert = leptin_search_greedy(s3, {2}, half)
        assert cert is not None
        assert sorted(cert.V) == [0, 2]
        assert cert.ratio == Fraction(6, 5)
        assert cert.ratio < 1 + half

    def test_group_case_immediate(self, z4):
        cert = leptin_search_greedy(z4, {1}, Fraction(1, 100))
        assert cert is not None
        assert sorted(cert.V) == [0]
        assert cert.ratio == 1

    def test_su2_matches_interval_quality(self, su2):
        cert = leptin_search_greedy(su2, {1}, 2, max_size=8)
        assert cert is not None
        assert cert.ratio < 3

    def test_budget_exhaustion_returns_none(self, su2):
        assert leptin_search_greedy(su2, {4}, Fraction(1, 1000), max_size=3) is None


class TestExhaustiveSearch:
    def test_s3_optimum_is_full_universe(self, s3):
        cert = leptin_search_exhaustive(s3, {2}, half)
        assert sorted(cert.V) == [0, 1, 2]
        assert cert.ratio == 1

    def test_identity_k_returns_singleton(self, s3):
        cert = leptin_search_exhaustive(s3, {s3.identity}, 1)
        assert sorted(cert.V) == [s3.identity]
        assert cert.ratio == 1

    def test_group_case(self, z4):
        cert = leptin_search_exhaustive(z4, {1, 2}, 1)
        assert cert.ratio == 1

    def test_infinite_universe_rejected(self, su2):
        with pytest.raises(CapacityError):
            leptin_search_exhaustive(su2, {1}, 1)

    def test_cap_enforced(self, q8):
        with pytest.raises(CapacityError):
            leptin_search_exhaustive(q8, {4}, 1, max_universe=3)

    def test_greedy_meets_epsilon_when_optimum_does(self, s3, q8, z2, z4):
        duals = [s3, q8, z2, z4, product_dual([z2, z4])]
        epsilons = [Fraction(2), Fraction(1), half, Fraction(1, 10)]
        for H in duals:
            assert len(H.universe) <= 8
            for K in [{H.universe[0]}, {H.universe[-1]}, set(H.universe[:2])]:
                optimum = leptin_search_exhaustive(H, K, Fraction(2))
                for eps in epsilons:
                    if optimum.ratio < 1 + eps:
                        cert = leptin_search_greedy(H, K, eps, max_size=16)
                        assert cert is not None
                        assert cert.ratio < 1 + eps


class TestCertificates:
    def test_reverification_from_scratch(self, s3):
        cert = leptin_search_greedy(s3, {2}, half)
        assert cert.recompute_ratio() == cert.ratio
        assert cert.verify()

    def test_tampered_ratio_fails(self, s3):
        cert = leptin_search_greedy(s3, {2}, half)
        cert.ratio = cert.ratio + 1
        assert not cert.verify()

    def test_json_round_trip(self, s3):
        cert = leptin_search_exhaustive(s3, {2}, half)
        doc = cert.to_json_dict()
        again = certificate_from_json_dict(doc, s3)
        assert again.verify()
        assert again.ratio == cert.ratio

    def test_interval_json_round_trip(self, su2):
        cert = leptin_search_interval(1, half, hypergroup=su2)
        again = certificate_from_json_dict(cert.to_json_dict(), su2)
        assert again.verify()

    @pytest.mark.parametrize("K", [[-1, 0, 2], [True, 0, 2]])
    def test_forged_interval_labels_fail_verification(self, su2, K):
        # three labels with maximum 2 that are not the interval {0, 1, 2}
        cert = leptin_search_interval(1, half, hypergroup=su2)
        doc = cert.to_json_dict()
        assert doc["K"] == [0, 1, 2]
        doc["K"] = K
        forged = certificate_from_json_dict(doc, su2)
        with pytest.raises(LabelDomainError):
            forged.verify()

    def test_malformed_document(self, s3):
        with pytest.raises(UsageError):
            certificate_from_json_dict({"strategy": "greedy"}, s3)


class TestProductCertificates:
    def test_two_s3_factors(self, s3):
        certs = [leptin_search_exhaustive(s3, {2}, half) for _ in range(2)]
        prod = leptin_product(certs)
        assert prod.ratio == 1
        assert prod.verified

    def test_su2_squared_bound(self, su2):
        factor = leptin_search_interval(half, 2, hypergroup=su2)
        prod = leptin_product([factor, factor])
        assert prod.ratio <= factor.ratio * factor.ratio
        # direct enumeration agrees with the stored ratio
        H = prod.hypergroup
        assert leptin_ratio(H, prod.K, prod.V) == prod.ratio

    def test_single_factor_identity(self, s3):
        cert = leptin_search_exhaustive(s3, {2}, half)
        assert leptin_product([cert]) is cert

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            leptin_product([])

    def test_arity_mismatch(self, s3, z4):
        cert = leptin_search_exhaustive(s3, {2}, half)
        prod_h = product_dual([s3, finite_group_dual(builtin_table("z4"))])
        with pytest.raises(UsageError):
            leptin_product([cert], hypergroup=prod_h)
