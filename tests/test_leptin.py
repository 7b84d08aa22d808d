"""Leptin ratios, closed forms, searches and certificates."""

import json
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import (
    CapacityError,
    LabelDomainError,
    UsageError,
    build_witness,
    builtin_table,
    finite_group_dual,
    leptin_product,
    leptin_ratio,
    leptin_search_exhaustive,
    leptin_search_greedy,
    leptin_search_interval,
    product_dual,
    su2_dual,
)
from hypergroups import bump, leptin, su2num
from hypergroups.cli import run
from hypergroups.core import InternalInvariantError
from hypergroups.duals import twice_spin
from hypergroups.fourier import BumpFunction
from hypergroups.leptin import LeptinCertificate, certificate_from_json_dict
from oracles import (
    S3Group,
    TwoLabelHypergroup,
    leptin_search_exhaustive_loops,
    leptin_search_greedy_loops,
)

half = Fraction(1, 2)
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


class TestLeptinRatio:
    def test_su2_interval_example(self, su2):
        assert leptin_ratio(su2, {1}, {0, 1, 2}) == Fraction(30, 14)

    def test_identity_k_gives_one(self, su2, s3):
        assert leptin_ratio(su2, {0}, {0, 1, 2, 5}) == 1
        assert leptin_ratio(s3, {s3.identity}, set(s3.universe)) == 1

    def test_full_universe_gives_one(self, s3, q8):
        for H in (s3, q8):
            assert leptin_ratio(H, set(H.universe), set(H.universe)) == 1

    def test_repeated_labels_count_once(self, su2, s3):
        assert leptin_ratio(su2, [0], [0, 0]) == leptin_ratio(su2, {0}, {0}) == 1
        assert leptin_ratio(s3, [0], [1, 1]) == leptin_ratio(s3, {0}, {1}) == 1
        assert leptin_ratio(su2, [1, 1], [2, 0, 2]) == leptin_ratio(su2, {1}, {0, 2})

    def test_empty_sets_rejected(self, su2):
        with pytest.raises(UsageError):
            leptin_ratio(su2, {0}, set())
        with pytest.raises(UsageError):
            leptin_ratio(su2, set(), {0})

    @pytest.mark.parametrize("search", [leptin_search_interval, leptin_search_greedy,
                                        leptin_search_exhaustive],
                             ids=lambda search: search.__name__)
    def test_every_search_refuses_an_empty_k(self, su2, s3, search):
        H = su2 if search is leptin_search_interval else s3
        with pytest.raises(UsageError, match="^K must be nonempty$"):
            search(H, [], "1/4")


class TestRatiosAreFractions:
    """Each ratio and public Haar mass is a Fraction: an equality test passes a float
    (1.5 == Fraction(3, 2)), so these check the type."""

    @pytest.mark.parametrize("name", ["su2", "s3", "s3_x_z4"])
    def test_no_float_reaches_a_ratio(self, name, request):
        H = request.getfixturevalue(name)
        if H.is_finite:
            K, V = H.universe[1:3], H.universe[:2]
            certs = [leptin_search_greedy(H, K, 1), leptin_search_exhaustive(H, K, 1)]
        else:
            K, V = [1, 2], [0, 2, 5]
            certs = [leptin_search_greedy(H, K, 1), leptin_search_interval(H, K, 1)]
        certs.append(leptin_product(certs))
        assert [c.strategy for c in certs][1:] in (["exhaustive", "product"],
                                                   ["interval", "product"])
        plateau = bump(H, K, V)
        assert isinstance(plateau, BumpFunction)
        values = [c.ratio for c in certs] + [leptin_ratio(H, K, V), plateau.ratio,
                                             H.haar(V[-1]), H.haar_sum(V)]
        assert [type(x) for x in values] == [Fraction] * len(values)


class TestIntervalClosedForm:
    def test_spot_values(self):
        assert su2num.interval_ratio_n2(1, 2) == Fraction(30, 14)
        assert su2num.interval_ratio_n2(0, 14) == 1
        assert su2num.interval_ratio_n2(2, 20) == Fraction(4324, 3311)

    def test_non_half_integer_rejected(self, su2):
        with pytest.raises(UsageError):
            leptin_search_interval(su2, [Fraction(1, 3)], 1)
        with pytest.raises(UsageError):
            twice_spin(-1)

    def test_matches_enumeration(self, su2):
        # cross-validation of the closed form against the direct oracle
        for k2 in range(0, 9):
            for m2 in range(k2, 9):
                closed = su2num.interval_ratio_n2(k2, m2)
                direct = leptin_ratio(su2, range(k2 + 1), range(m2 + 1))
                assert closed == direct

    def test_nonincreasing_in_m_and_tends_to_one(self):
        for k2 in (1, 2, 6):
            previous = None
            for m2 in range(k2, 101):  # m up to 50 in spin units
                value = su2num.interval_ratio_n2(k2, m2)
                if previous is not None:
                    assert value <= previous
                previous = value
            far_out = su2num.interval_ratio_n2(k2, 2000)
            assert far_out < previous and far_out < Fraction(101, 100)


class TestIntervalSearch:
    def test_minimal_interval_for_eps_two(self, su2):
        cert = leptin_search_interval(su2, [1], 2)
        # scan over m = 1/2, 1, ...: already m = 1/2 meets the bound
        assert max(cert.V) == 1
        assert cert.ratio == Fraction(14, 5)
        assert cert.verified

    def test_identity_k(self, su2):
        cert = leptin_search_interval(su2, [0], Fraction(1, 100))
        assert list(cert.V) == [0]
        assert cert.ratio == 1

    def test_minimality(self, su2):
        cert = leptin_search_interval(su2, [2], Fraction(1, 10))
        m2 = max(cert.V)
        assert cert.ratio < Fraction(11, 10)
        assert su2num.interval_ratio_n2(2, m2 - 1) >= Fraction(11, 10)

    def test_epsilon_must_be_exact_and_positive(self, su2):
        with pytest.raises(UsageError):
            leptin_search_interval(su2, [2], 0.1)
        with pytest.raises(UsageError):
            leptin_search_interval(su2, [2], 0)


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


class TestOneRoute:
    """The CLI and the witness stages reach every engine through leptin_search."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for strategy in leptin.STRATEGIES:
            name = f"leptin_search_{strategy}"

            def counted(*args, engine=getattr(leptin, name), strategy=strategy, **kwargs):
                calls.append(strategy)
                return engine(*args, **kwargs)

            monkeypatch.setattr(leptin, name, counted)
        return calls

    CASES = [("interval", "su2"), ("greedy", "s3"), ("exhaustive", "s3")]

    @pytest.mark.parametrize("strategy,dual", CASES)
    def test_witness_stages(self, request, calls, strategy, dual):
        H = request.getfixturevalue(dual)
        build_witness(H, [H.identity], "11/10", 2, search=strategy)
        assert calls == [strategy, strategy]

    @pytest.mark.parametrize("strategy,dual", CASES)
    def test_cli(self, capsys, calls, strategy, dual):
        assert run(["leptin", "--dual", dual, "--K", "1", "--epsilon", "1",
                    "--strategy", strategy]) == 0
        assert calls == [strategy]

    def test_dispatch_names_its_refusals(self, s3, su2):
        with pytest.raises(UsageError, match="^the interval strategy needs the dual of SU"):
            leptin.leptin_search(s3, [1], 1, "interval")
        with pytest.raises(UsageError, match="^unknown Leptin strategy 'random'"):
            leptin.leptin_search(s3, [1], 1, "random")
        with pytest.raises(CapacityError, match=r"^greedy search found no set of size <= 3 "
                                                r"with ratio below 1001/1000$"):
            leptin.leptin_search(su2, [4], Fraction(1, 1000), "greedy", max_size=3)


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

    def test_cap_enforced(self, q8, monkeypatch):
        # 5 labels tabulate 32 subsets, over a budget of 8
        monkeypatch.setattr(leptin, "MAX_LEPTIN_SUBSETS", 8)
        with pytest.raises(CapacityError, match="tabulates 32 subsets; the budget is 8"):
            leptin_search_exhaustive(q8, {4}, 1)

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
        cert = leptin_search_interval(su2, [2], half)
        again = certificate_from_json_dict(cert.to_json_dict(), su2)
        assert again.verify()

    @pytest.mark.parametrize("K", [[-1, 0, 2], [True, 0, 2]])
    def test_forged_interval_labels_fail_verification(self, su2, K):
        # three labels with maximum 2 that are not the interval {0, 1, 2}
        cert = leptin_search_interval(su2, [2], half)
        doc = cert.to_json_dict()
        assert doc["K"] == [0, 1, 2]
        doc["K"] = K
        forged = certificate_from_json_dict(doc, su2)
        with pytest.raises(LabelDomainError):
            forged.verify()

    def test_malformed_document(self, s3):
        with pytest.raises(UsageError):
            certificate_from_json_dict({"strategy": "greedy"}, s3)

    @pytest.mark.parametrize("sets", [range, lambda n: frozenset(range(n))], ids=["range", "set"])
    def test_spin_intervals_take_the_closed_form_under_any_strategy(self, su2, sets):
        # the witness's stage-4 sets at D = 1.1: their support product is far
        # past the U-series budget, so only the closed form can verify them
        ratio = su2num.interval_ratio_n2(1888, 28779)
        cert = LeptinCertificate("greedy", sets(1889), sets(28780), ratio, Fraction(21, 100), su2)
        with mock.patch.object(leptin, "leptin_ratio", side_effect=AssertionError):
            assert cert.verify()
            cert.ratio += Fraction(1, 10 ** 9)
            assert not cert.verify()


_FINITE = [finite_group_dual(builtin_table(name)) for name in ("z2", "z4", "s3", "q8")]
_SU2 = su2_dual()
_EPSILON = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=12)


def _subset(data, H):
    return data.draw(st.sets(st.sampled_from(H.universe), min_size=1, max_size=3))


def _factor_certificate(data):
    kind = data.draw(st.sampled_from(["greedy", "exhaustive", "interval"]))
    epsilon = data.draw(_EPSILON)
    if kind == "interval":
        return leptin_search_interval(_SU2, [data.draw(st.integers(0, 4))], epsilon)
    H = data.draw(st.sampled_from(_FINITE))
    if kind == "greedy":
        return leptin_search_greedy(H, _subset(data, H), epsilon)
    return leptin_search_exhaustive(H, _subset(data, H), epsilon)


def _certificate(data):
    """A greedy, exhaustive, interval or product certificate."""
    if data.draw(st.booleans()):
        return _factor_certificate(data)
    finite = lambda: data.draw(st.sampled_from(_FINITE))  # noqa: E731
    factors = []
    for H in (finite(), finite()):
        maker = data.draw(st.sampled_from([leptin_search_greedy, leptin_search_exhaustive]))
        factors.append(maker(H, _subset(data, H), data.draw(_EPSILON)))
    return leptin_product(factors)


def _replace(key, value):
    return lambda doc: {**doc, key: value}


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _shift_ratio(doc):
    ratio = Fraction(doc["ratio"]) + Fraction(1, 7)
    return {**doc, "ratio": f"{ratio.numerator}/{ratio.denominator}"}


def _shrink_epsilon(doc):
    # ratio < 1 + epsilon must now fail
    epsilon = Fraction(doc["ratio"]) - 1
    return {**doc, "epsilon": f"{epsilon.numerator}/{epsilon.denominator}"}


def _add_label(key, label):
    return lambda doc: {**doc, key: doc[key] + [label]}


_MUTATIONS = (
    [_shift_ratio, _shrink_epsilon, _replace("V", []), _replace("strategy", 7)]
    + [_drop(key) for key in ("strategy", "K", "V", "ratio", "epsilon")]
    + [_replace(key, value) for key in ("ratio", "epsilon")
       for value in ("1/0", 1.5, 2, None, "abc", "", ["1/2"])]
    + [_replace(key, value) for key in ("K", "V") for value in ("ab", None, 5, {"0": 1})]
    + [_add_label(key, label) for key in ("K", "V") for label in (-1, "zz", {"x": 1}, 1.5)]
)


class TestCertificateDocuments:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_verifies_with_the_same_ratio(self, data):
        cert = _certificate(data)
        again = certificate_from_json_dict(cert.to_json_dict(), cert.hypergroup)
        assert again.verify()
        assert again.ratio == cert.ratio and again.epsilon == cert.epsilon
        assert again.to_json_dict() == cert.to_json_dict()

    @given(data=st.data(), mutate=st.sampled_from(_MUTATIONS))
    @settings(max_examples=150, deadline=None)
    def test_mutated_document_fails_or_is_refused(self, data, mutate):
        cert = _certificate(data)
        doc = mutate(cert.to_json_dict())
        try:
            verified = certificate_from_json_dict(doc, cert.hypergroup).verify()
        except UsageError:
            return
        assert not verified

    @pytest.mark.parametrize("key,value", [
        ("ratio", "1/0"), ("epsilon", "1/0"), ("ratio", 1.5), ("K", "ab")])
    def test_malformed_fields_are_usage_errors(self, s3, key, value):
        # a raw ZeroDivisionError, ratio 3/2 and labels "a", "b" before
        doc = leptin_search_greedy(s3, {2}, half).to_json_dict()
        with pytest.raises(UsageError, match="malformed certificate document"):
            certificate_from_json_dict({**doc, key: value}, s3)


class TestProductCertificates:
    def test_two_s3_factors(self, s3):
        certs = [leptin_search_exhaustive(s3, {2}, half) for _ in range(2)]
        prod = leptin_product(certs)
        assert prod.ratio == 1
        assert prod.verified

    def test_su2_squared_bound(self, su2):
        factor = leptin_search_interval(su2, [1], 2)
        prod = leptin_product([factor, factor])
        assert prod.ratio <= factor.ratio * factor.ratio
        # direct enumeration agrees with the stored ratio
        H = prod.hypergroup
        assert leptin_ratio(H, prod.K, prod.V) == prod.ratio

    def test_finite_factors_match_direct_enumeration(self, s3, z4):
        certs = [leptin_search_greedy(s3, {2}, 2), leptin_search_greedy(z4, {1, 2}, 1)]
        prod = leptin_product(certs)
        assert prod.ratio == certs[0].ratio * certs[1].ratio == Fraction(9, 5)
        assert leptin_ratio(prod.hypergroup, prod.K, prod.V) == prod.ratio
        assert prod.verified

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

    def test_certificate_of_another_hypergroup_is_refused(self, s3, z4, q8, z2):
        # the arities agree, but K = {(2, 3)} is not a set of labels of q8-hat x z2-hat
        certs = [leptin_search_greedy(s3, {2}, 2), leptin_search_greedy(z4, {3}, 2)]
        with pytest.raises(UsageError, match=r"^certs\[0\] is a certificate on s3-hat"):
            leptin_product(certs, hypergroup=product_dual([q8, z2]))
        with pytest.raises(UsageError, match=r"^certs\[1\] is a certificate on z4-hat"):
            leptin_product(certs, hypergroup=product_dual([s3, z2]))
        # an equal but distinct factor dual is another hypergroup
        with pytest.raises(UsageError, match=r"^certs\[1\]"):
            leptin_product(certs, hypergroup=product_dual([s3, finite_group_dual(z4.table)]))
        prod = leptin_product(certs, hypergroup=product_dual([s3, z4]))
        assert prod.verified and leptin_ratio(prod.hypergroup, prod.K, prod.V) == prod.ratio

    def test_witness_size_interval_factor(self, su2, s3):
        # stage 4 of the D = 1.1 chain: the generic ratio's U-series product
        # (1889 x 28780 multiply-adds) is over budget, the closed form is not
        stage = leptin_search_interval(su2, [1888], Fraction(21, 100), min_m2=1888)
        assert (stage.K, stage.V) == (range(1889), range(28780))
        start = time.perf_counter()
        prod = leptin_product([stage, leptin_search_greedy(s3, {2}, Fraction(1, 4))])
        assert time.perf_counter() - start < 1.0
        assert prod.verified
        assert prod.ratio == stage.ratio * Fraction(6, 5)
        assert prod.verify()

    @pytest.mark.parametrize("position", [0, 1])
    def test_changed_factor_ratio_is_refused(self, su2, s3, position):
        certs = [leptin_search_interval(su2, [1], 2),
                 leptin_search_greedy(s3, {2}, 2)]
        certs[position].ratio -= Fraction(1, 100)
        with pytest.raises(UsageError, match=rf"certs\[{position}\] fails verification"):
            leptin_product(certs)

    @given(k2=st.integers(0, 40), extra=st.integers(0, 40), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_interval_factor_matches_the_product_dual(self, k2, extra, data):
        m2 = min(k2 + extra, 40)
        epsilon = su2num.interval_ratio_n2(k2, m2) - 1 + Fraction(1, 1000)
        interval = leptin_search_interval(_SU2, [k2], epsilon, min_m2=m2)
        assert interval.V == range(m2 + 1)
        H = data.draw(st.sampled_from(_FINITE[:3]))
        finite = leptin_search_exhaustive(H, _subset(data, H), data.draw(_EPSILON))
        prod = leptin_product([interval, finite])
        assert leptin_ratio(prod.hypergroup, prod.K, prod.V) == prod.ratio


def _dual(*names):
    tables = [finite_group_dual(builtin_table(name)) for name in names]
    return tables[0] if len(tables) == 1 else product_dual(tables)


# every bundled dual, and every product of bundled duals with at most 12 labels
_SEARCH_DUALS = {
    ",".join(names): _dual(*names)
    for names in [("z2",), ("z4",), ("s3",), ("q8",),
                  ("z2", "z2"), ("z2", "z4"), ("z4", "z2"), ("z2", "s3"), ("s3", "z2"),
                  ("z2", "q8"), ("q8", "z2"), ("s3", "s3"), ("s3", "z4"), ("z4", "s3"),
                  ("z2", "z2", "z2"), ("z2", "z2", "s3"), ("z2", "s3", "z2"), ("s3", "z2", "z2")]
}
_TWO_LABEL = TwoLabelHypergroup()
_SEARCH_EPSILON = st.fractions(min_value=Fraction(1, 100), max_value=3, max_denominator=100)


def _outcome(search, *args, **kwargs):
    """A search's certificate document, None, or its error type and message."""
    try:
        cert = search(*args, **kwargs)
    except (CapacityError, InternalInvariantError) as exc:
        return type(exc).__name__, str(exc)
    return cert if cert is None else cert.to_json_dict()


class TestSearchesMatchTheirOracles:
    """Each certificate equals the direct loops' one: ratio, V, strategy and all."""

    @pytest.mark.parametrize("name", _SEARCH_DUALS)
    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_exhaustive(self, name, data):
        H = _SEARCH_DUALS[name]
        assert len(H.universe) <= 12
        K = data.draw(st.sets(st.sampled_from(H.universe), min_size=1, max_size=3))
        epsilon = data.draw(_SEARCH_EPSILON)
        got = _outcome(leptin_search_exhaustive, H, K, epsilon)
        assert got == _outcome(leptin_search_exhaustive_loops, H, K, epsilon)

    @pytest.mark.parametrize("name", _SEARCH_DUALS)
    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_greedy(self, name, data):
        H = _SEARCH_DUALS[name]
        K = data.draw(st.sets(st.sampled_from(H.universe), min_size=1, max_size=3))
        epsilon = data.draw(_SEARCH_EPSILON)
        max_size = data.draw(st.integers(1, 12))
        got = _outcome(leptin_search_greedy, H, K, epsilon, max_size=max_size)
        assert got == _outcome(leptin_search_greedy_loops, H, K, epsilon, max_size=max_size)

    @given(K=st.sets(st.integers(0, 6), min_size=1, max_size=3),
           epsilon=st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=20),
           max_size=st.integers(1, 24))
    @settings(max_examples=20, deadline=None)
    def test_greedy_on_su2(self, K, epsilon, max_size):
        got = _outcome(leptin_search_greedy, _SU2, K, epsilon, max_size=max_size)
        assert got == _outcome(leptin_search_greedy_loops, _SU2, K, epsilon, max_size=max_size)

    def test_every_two_label_k_of_the_bench(self, s3_x_z4):
        # the benchmark's reference holds the loops' certificate for each of them
        reference = json.loads(REFERENCE.read_text())["finite-products"]["exhaustive"]
        assert len(reference) == 66
        for K in combinations(s3_x_z4.universe, 2):
            cert = leptin_search_exhaustive(s3_x_z4, K, Fraction(1, 4))
            want = reference[json.dumps([list(x) for x in K], separators=(",", ":"))]
            assert sorted(cert.V) == [tuple(x) for x in want["V"]]
            assert cert.ratio == Fraction(want["ratio"]) and cert.verified

    def test_greedy_on_every_k_of_the_generic_bench(self, su2):
        # the benchmark's GENERIC_KS: three labels up to 4, with 4 and an odd one
        ks = [list(K) for K in combinations(range(5), 3) if 4 in K and any(x % 2 for x in K)]
        reference = json.loads(REFERENCE.read_text())["generic-su2"]["by_K"]
        assert sorted(reference) == sorted(json.dumps(K, separators=(",", ":")) for K in ks)
        for K in ks:
            want = reference[json.dumps(K, separators=(",", ":"))]["greedy"]
            cert = leptin_search_greedy(su2, K, Fraction(1, 4))
            assert len(want["V"]) == 49
            assert sorted(cert.V) == want["V"] and cert.strategy == want["strategy"]
            assert cert.ratio == Fraction(want["ratio"]) and cert.verified

    @pytest.mark.parametrize("H", [_TWO_LABEL, S3Group()], ids=["two-label", "s3-group"])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_greedy_with_fraction_masses(self, H, data):
        assert all(type(H._haar(x)) is Fraction for x in H.universe)
        K = data.draw(st.sets(st.sampled_from(H.universe), min_size=1, max_size=3))
        epsilon = data.draw(_SEARCH_EPSILON)
        max_size = data.draw(st.integers(1, 6))
        got = _outcome(leptin_search_greedy, H, K, epsilon, max_size=max_size)
        assert got == _outcome(leptin_search_greedy_loops, H, K, epsilon, max_size=max_size)

    @given(K=st.sets(st.sampled_from((0, 1)), min_size=1), epsilon=_SEARCH_EPSILON)
    @settings(max_examples=10, deadline=None)
    def test_exhaustive_with_fraction_masses(self, K, epsilon):
        H = _TWO_LABEL
        assert H._haar(1) == Fraction(5, 2)
        got = _outcome(leptin_search_exhaustive, H, K, epsilon)
        assert got == _outcome(leptin_search_exhaustive_loops, H, K, epsilon)

    @pytest.mark.parametrize("H,sizes", [(_dual("z4"), range(1, 5)), (_dual("z2", "z4"), (1, 2))],
                             ids=["z4", "z2,z4"])
    def test_ties_are_broken_alike(self, H, sizes):
        # abelian duals: a single label K gives every V ratio 1, so all
        # 2^n - 1 subsets tie and the tie-break alone picks V
        for size in sizes:
            for K in combinations(H.universe, size):
                got = leptin_search_exhaustive(H, K, 1).to_json_dict()
                assert got == leptin_search_exhaustive_loops(H, K, 1).to_json_dict()

    def test_tie_break_examples(self, z4):
        # ratio 1 for {0, 2}, {1, 3} and the whole group; the smallest, then the first
        cert = leptin_search_exhaustive(z4, {2}, 1)
        assert sorted(cert.V) == [0] and cert.ratio == 1
        cert = leptin_search_exhaustive(z4, {0, 2}, 1)
        assert sorted(cert.V) == [0, 2] and cert.ratio == 1
        cert = leptin_search_exhaustive(z4, {1, 2}, 1)
        assert sorted(cert.V) == [0, 1, 2, 3] and cert.ratio == 1

    def test_object_arrays_when_int64_could_overflow(self, s3_x_z4, monkeypatch):
        monkeypatch.setattr(leptin, "INT64_LIMIT", 0)
        for K in list(combinations(s3_x_z4.universe, 2))[::22]:
            got = leptin_search_exhaustive(s3_x_z4, K, 2).to_json_dict()
            assert got == leptin_search_exhaustive_loops(s3_x_z4, K, 2).to_json_dict()

    @pytest.mark.parametrize("epsilon", ["1/4", "1/2", "1"])
    def test_greedy_on_a_non_commutative_group(self, epsilon):
        # S3 with point-mass fusion: the pool also gains c*V when c joins V
        H = S3Group()
        for K in combinations(H.universe, 2):
            got = _outcome(leptin_search_greedy, H, K, epsilon, max_size=6)
            assert got == _outcome(leptin_search_greedy_loops, H, K, epsilon, max_size=6)

    def test_certificates_are_verified_by_leptin_ratio(self, s3_x_z4):
        K = [(2, 1), (1, 2)]
        with mock.patch.object(leptin, "leptin_ratio", wraps=leptin.leptin_ratio) as ratio:
            cert = leptin_search_exhaustive(s3_x_z4, K, 1)
        ratio.assert_called_once_with(s3_x_z4, cert.K, cert.V)
        with mock.patch.object(leptin, "leptin_ratio", wraps=leptin.leptin_ratio) as ratio:
            cert = leptin_search_greedy(s3_x_z4, K, Fraction(1, 4))
        ratio.assert_called_once_with(s3_x_z4, cert.K, cert.V)


class TestSubsetBudget:
    def test_refused_before_allocating(self):
        H = _dual("s3", "q8", "z2")  # 30 labels, 2^30 subsets
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="tabulates 1073741824 subsets"):
                leptin_search_exhaustive(H, [H.identity], 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_boundary(self, z4, monkeypatch):
        monkeypatch.setattr(leptin, "MAX_LEPTIN_SUBSETS", 16)
        assert leptin_search_exhaustive(z4, {1}, 1).ratio == 1
        with pytest.raises(CapacityError, match="the budget is 16"):
            leptin_search_exhaustive(_dual("z2", "s3"), [(0, 0)], 1)

    def test_cli_exits_4_at_once(self, tmp_path):
        start = time.perf_counter()
        assert run(["leptin", "--dual", "s3,q8,z2", "--strategy", "exhaustive",
                    "--K", "triv|triv|triv", "--epsilon", "1",
                    "--out", str(tmp_path / "out.json")]) == 4
        assert time.perf_counter() - start < 1.0


class TestProductVerifiesOnce:
    def test_two_finite_factors_cost_two_ratios(self, s3, z4):
        certs = [leptin_search_greedy(s3, {2}, 2), leptin_search_greedy(z4, {1, 2}, 1)]
        with mock.patch.object(leptin, "leptin_ratio", wraps=leptin.leptin_ratio) as ratio:
            prod = leptin_product(certs)
            assert ratio.call_count == 2
            assert prod.verified
            # verify() still recomputes every factor from scratch
            assert prod.verify()
            assert ratio.call_count == 4
