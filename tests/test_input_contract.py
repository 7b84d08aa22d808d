"""The input contract: every bad input to a public function is a typed error.

Each public call below has one open slot, a label, an exact number, a
real number or a count.  Put a bad value in it, and the call must raise a
HypergroupError subclass, never a raw ZeroDivisionError, ValueError or
TypeError, on su2-hat, S3-hat and (S3 x Z4)-hat alike.  Exact numbers are
read by one reader, ``core.exact``, real numbers (tolerances and
exponents, where a float is a good value) by ``core.real``, and counts by
``core.count``; label sets are checked once by the public function that
receives them.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergroups import (
    CapacityError,
    ExactComplex,
    FiniteFunction,
    FiniteMeasure,
    HypergroupError,
    LabelDomainError,
    QuadratureConfig,
    Su2IntervalBump,
    UsageError,
    a_norm,
    build_witness,
    builtin_table,
    bump,
    central_function,
    check_axioms,
    convolve_h,
    exact,
    finite_group_dual,
    leptin_ratio,
    leptin_search_exhaustive,
    leptin_search_greedy,
    leptin_search_interval,
    lp_h_norm,
    product_dual,
    su2_dual,
    support_product,
)
from hypergroups import segal
from hypergroups.core import MAX_EXACT_EXPONENT, MAX_WITNESS_TERMS
from hypergroups.duals import twice_spin
from hypergroups.fourier import a_norm_su2, lp_h_power_sum

FAMILIES = ("su2", "s3", "s3,z4")

# stands for the out-of-range value of the slot it is put in
OUT_OF_RANGE = object()

BAD = [1.5, True, None, "abc", "1/0", "1e99999999", [1], OUT_OF_RANGE]
BAD_IDS = ["float", "bool", "None", "abc", "1/0", "1e99999999", "unhashable", "out-of-range"]

OUT_OF_RANGE_LABEL = {"su2": -1, "s3": 7, "s3,z4": (2, 9)}


_point = FiniteFunction.point


# (name, call with the open slot x[, the families it applies to, if not all])
LABEL_CALLS = [
    ("fuse", lambda H, x: H.fuse(H.identity, x)),
    ("haar", lambda H, x: H.haar(x)),
    ("involution", lambda H, x: H.involution(x)),
    ("dimension", lambda H, x: H.dimension(x)),
    ("haar_sum", lambda H, x: H.haar_sum([H.identity, x])),
    ("support_product", lambda H, x: support_product(H, [H.identity], [H.identity, x])),
    ("convolve_h", lambda H, x: convolve_h(H, _point(H.identity), _point(x))),
    ("check_axioms", lambda H, x: check_axioms(H, [H.identity, x])),
    ("bump K", lambda H, x: bump(H, [H.identity, x], [H.identity])),
    ("bump V", lambda H, x: bump(H, [H.identity], [x, H.identity])),
    ("leptin_ratio K", lambda H, x: leptin_ratio(H, [x], [H.identity])),
    ("leptin_ratio V", lambda H, x: leptin_ratio(H, [H.identity], [H.identity, x])),
    ("greedy", lambda H, x: leptin_search_greedy(H, [H.identity, x], "1/4")),
    ("exhaustive", lambda H, x: leptin_search_exhaustive(H, [x], "1/4")),
    ("interval", lambda H, x: leptin_search_interval(H, [H.identity, x], "1/4"), ("su2",)),
    ("build_witness", lambda H, x: build_witness(H, [H.identity, x], "11/10", 2)),
    ("central_function", lambda H, x: central_function(H, _point(x))),
    ("a_norm", lambda H, x: a_norm(H, _point(x))),
    ("lp_h_power_sum", lambda H, x: lp_h_power_sum(H, _point(x), 2)),
    ("a_norm_su2", lambda H, x: a_norm_su2(_point(x)), ("su2",)),
    ("Su2IntervalBump k2", lambda H, x: Su2IntervalBump(H, x, 2), ("su2",)),
    ("Su2IntervalBump m2", lambda H, x: Su2IntervalBump(H, 2, x), ("su2",)),
]

# (name, call with the open slot q, the slot's out-of-range value or None)
NUMBER_CALLS = [
    ("FiniteFunction value", lambda H, q: FiniteFunction({H.identity: q}), None),
    ("FiniteMeasure mass", lambda H, q: FiniteMeasure({H.identity: q}), -1),
    ("scale", lambda H, q: _point(H.identity).scale(q), None),
    ("greedy epsilon", lambda H, q: leptin_search_greedy(H, [H.identity], q), 0),
    ("exhaustive epsilon", lambda H, q: leptin_search_exhaustive(H, [H.identity], q), -1),
    ("interval k", lambda H, q: leptin_search_interval(su2_dual(), [q], "1/4"), Fraction(1, 3)),
    ("interval epsilon", lambda H, q: leptin_search_interval(su2_dual(), [0], q), 0),
    ("interval ratio m",
     lambda H, q: leptin_search_interval(su2_dual(), [2], "1/4", min_m2=q), -1),
    ("twice_spin", lambda H, q: twice_spin(q), -1),
    ("build_witness D", lambda H, q: build_witness(H, [H.identity], q, 2), 1),
]


# (name, call with the open slot r and a one-term witness w, the slot's
# out-of-range value): tolerances and exponents are real numbers
REAL_CALLS = [
    ("QuadratureConfig tolerance", lambda H, w, r: QuadratureConfig(tolerance=r), 0),
    ("check_multiplier_bounded tolerance",
     lambda H, w, r: segal.check_multiplier_bounded(w, tolerance=r), -1),
    ("blowup_report p", lambda H, w, r: segal.blowup_report(w, r), 3),
    ("lp_h_norm p", lambda H, w, r: lp_h_norm(H, _point(H.identity), r), Fraction(1, 2)),
]
BAD_REALS = [True, None, "1e-9", "2", [1], math.nan, 10 ** 400, OUT_OF_RANGE]
BAD_REAL_IDS = ["bool", "None", "1e-9", "2", "list", "nan", "10**400", "out-of-range"]


# (name, call with the open slot n): counts and sizes are positive ints
COUNT_CALLS = [
    ("build_witness N", lambda H, n: build_witness(H, [H.identity], "11/10", n)),
    ("build_witness max_size",
     lambda H, n: build_witness(H, [H.identity], "11/10", 2, max_size=n)),
    ("greedy max_size",
     lambda H, n: leptin_search_greedy(H, [H.identity], "1/4", max_size=n)),
    ("cyclotomic order", lambda H, n: ExactComplex.cyclotomic(n, [1])),
]
BAD_COUNTS = [None, True, False, 1.5, 2.0, "3", [1], Fraction(2), 0, -1]


@pytest.fixture(scope="module")
def duals():
    # every call below fails before it caches anything; TestWarmCache checks
    # the same labels against caches that hold their equal valid labels
    s3, z4 = (finite_group_dual(builtin_table(name)) for name in ("s3", "z4"))
    return {"su2": su2_dual(), "s3": s3, "s3,z4": product_dual([s3, z4])}


LABEL_CASES = [
    pytest.param(family, name, call, id=f"{name}-{family}")
    for name, call, *families in LABEL_CALLS
    for family in (families[0] if families else FAMILIES)
]


# every (call, bad value) pair, the out-of-range one only where the slot has a range
NUMBER_CASES = [
    pytest.param(call, out_of_range if bad is OUT_OF_RANGE else bad, id=f"{name}-{bad_id}")
    for name, call, out_of_range in NUMBER_CALLS
    for bad, bad_id in zip(BAD, BAD_IDS)
    if not (bad is OUT_OF_RANGE and out_of_range is None)
]


@pytest.mark.parametrize("family,name,call", LABEL_CASES)
@given(bad=st.sampled_from(BAD) | st.floats() | st.lists(st.integers(), max_size=2))
@example(bad=1.5)
@example(bad=True)
@example(bad=None)
@example(bad="abc")
@example(bad="1/0")
@example(bad="1e99999999")
@example(bad=[1])
@example(bad=OUT_OF_RANGE)
@settings(max_examples=20, deadline=None)
def test_bad_label_is_a_typed_error(duals, family, name, call, bad):
    H = duals[family]
    label = OUT_OF_RANGE_LABEL[family] if bad is OUT_OF_RANGE else bad
    with pytest.raises(HypergroupError):
        call(H, label)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("call,value", NUMBER_CASES)
def test_bad_number_is_a_typed_error(duals, family, call, value):
    start = time.perf_counter()
    with pytest.raises(HypergroupError):
        call(duals[family], value)
    assert time.perf_counter() - start < 1.0


@pytest.fixture(scope="module")
def one_term_witnesses(duals):
    return {family: build_witness(H, [H.identity], "11/10", 1) for family, H in duals.items()}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("call,value", [
    pytest.param(call, out_of_range if bad is OUT_OF_RANGE else bad, id=f"{name}-{bad_id}")
    for name, call, out_of_range in REAL_CALLS
    for bad, bad_id in zip(BAD_REALS, BAD_REAL_IDS)])
def test_bad_real_is_a_usage_error(duals, one_term_witnesses, family, call, value):
    with pytest.raises(UsageError):
        call(duals[family], one_term_witnesses[family], value)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name,call,value", [
    ("QuadratureConfig tolerance", lambda H, w, r: QuadratureConfig(tolerance=r), 1e-7),
    ("QuadratureConfig tolerance", lambda H, w, r: QuadratureConfig(tolerance=r),
     Fraction(1, 10 ** 7)),
    ("blowup_report p", lambda H, w, r: segal.blowup_report(w, r), 1.5),
    ("blowup_report p", lambda H, w, r: segal.blowup_report(w, r), Fraction(3, 2)),
    ("lp_h_norm p", lambda H, w, r: lp_h_norm(H, _point(H.identity), r), math.inf),
    ("lp_h_norm p", lambda H, w, r: lp_h_norm(H, _point(H.identity), r), 1.5),
], ids=lambda v: repr(v) if not callable(v) else "")
def test_good_reals_stay_accepted(duals, one_term_witnesses, family, name, call, value):
    call(duals[family], one_term_witnesses[family], value)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name,call", COUNT_CALLS, ids=[name for name, _ in COUNT_CALLS])
@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
def test_bad_count_is_a_usage_error(duals, family, name, call, value):
    with pytest.raises(UsageError, match="must be a positive integer"):
        call(duals[family], value)


class TestWitnessTermBudget:
    def test_refused_before_any_stage(self, duals, monkeypatch):
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage was built")

        monkeypatch.setattr(segal, "_interval_stage", no_stage)
        monkeypatch.setattr(segal, "_search_stage", no_stage)
        for family, search in [("su2", "interval"), ("s3", "greedy"), ("s3,z4", "exhaustive")]:
            with pytest.raises(CapacityError, match="witness terms"):
                build_witness(duals[family], [duals[family].identity], "11/10",
                              MAX_WITNESS_TERMS + 1, search=search)

    def test_budget_loses_no_interval_stage(self, su2):
        # a huge D lets every stage take the least m2, max(k2, 1), so k2
        # grows slowest, tripling; even then stage 15 is over the support cap
        with pytest.raises(CapacityError, match="^stage 15: the plateau support"):
            build_witness(su2, [0], 10 ** 6, MAX_WITNESS_TERMS, search="interval")

    def test_budget_is_reached(self, duals):
        w = build_witness(duals["s3"], [0], "11/10", MAX_WITNESS_TERMS)
        assert len(w) == MAX_WITNESS_TERMS

    def test_unhashable_point_label(self):
        with pytest.raises(UsageError, match="unhashable"):
            FiniteFunction.point([1])


def _warm(*factors):
    """A fresh dual of the named tables whose fusion and Haar caches hold every label."""
    tables = [finite_group_dual(builtin_table(name)) for name in factors]
    H = tables[0] if len(tables) == 1 else product_dual(tables)
    assert check_axioms(H, H.universe).ok
    for x in H.universe:
        H.haar(x)
    return H


class TestWarmCache:
    """A cache hit accepts exactly what a miss accepts."""

    @pytest.mark.parametrize("factors,label,equal", [
        (("s3",), True, 1), (("s3",), Fraction(1), 1), (("s3",), 1.0, 1),
        (("s3", "z4"), (0, True), (0, 1)), (("s3", "z4"), (True, 0), (1, 0)),
        (("s3", "z4"), (Fraction(2), 3), (2, 3)), (("s3", "z4"), (0, 1.0), (0, 1)),
        (("s3", "z4"), [0, 1], (0, 1)),
    ], ids=repr)
    def test_equal_label_of_another_type_is_refused(self, factors, label, equal):
        H = _warm(*factors)
        assert H.fuse(H.identity, equal) and H.haar(equal) and H.fuse(equal, equal)
        for call in (lambda: H.haar(label), lambda: H.fuse(H.identity, label),
                     lambda: H.fuse(label, H.identity), lambda: H.fuse(label, equal)):
            with pytest.raises(LabelDomainError, match="is not a label of"):
                call()

    @pytest.mark.parametrize("make,one,bad", [
        (su2_dual, 1, [True, Fraction(1), 1.0]),
        (lambda: product_dual([su2_dual(), finite_group_dual(builtin_table("s3"))]),
         (1, 0), [(True, 0), (1, 0.0), (Fraction(1), 0)]),
    ], ids=["su2", "su2 x s3"])
    def test_infinite_universe_refuses_and_keeps_no_memo(self, make, one, bad):
        # su2-hat has its own Haar engine; both memos stay empty on an infinite universe
        H = make()
        assert H.haar(one) == 4 and H.fuse(one, one).total() == 1
        for label in bad:
            for call in (lambda: H.haar(label), lambda: H.fuse(label, H.identity),
                         lambda: H.fuse(H.identity, label)):
                with pytest.raises(LabelDomainError, match="is not a label of"):
                    call()
        assert H._fusion_cache == {} and not hasattr(H, "_haar_cache")

    def test_an_equal_valid_label_still_hits(self):
        H = _warm("s3", "z4")
        x, y = (2, 3), (1, 2)
        cached = H.fuse(x, y)
        assert H.fuse(tuple([2, 3]), (1, int("2"))) is cached
        assert H.haar(tuple([2, 3])) == H.haar(x) == 4


# past the 4 300 digits Python writes in decimal by default: 16 610 bits
HUGE = -10 ** 5000


class TestHugeInts:
    """A caller's int too long to write in decimal leaves its typed error standing."""

    @pytest.mark.parametrize("call,named", [
        (lambda H: H.haar(HUGE), "-<int of 16610 bits> is not a label of su2-hat"),
        (lambda H: bump(H, [0], [HUGE]), "-<int of 16610 bits> is not a label of su2-hat"),
        (lambda H: Su2IntervalBump(H, HUGE, 1), "interval ends -<int of 16610 bits> and 1"),
        (lambda H: build_witness(H, [0], "11/10", HUGE),
         "N: must be a positive integer, got -<int of 16610 bits>"),
        (lambda H: leptin_search_greedy(H, [0], HUGE),
         "epsilon must be positive, got <Fraction holding an int too long to write>"),
        (lambda H: product_dual([H, H]).haar((0, HUGE)),
         "<tuple holding an int too long to write> is not a label"),
    ], ids=["haar", "bump V", "Su2IntervalBump", "build_witness N", "epsilon", "product label"])
    def test_error_names_the_value_by_its_size(self, su2, call, named):
        with pytest.raises(UsageError) as caught:
            call(su2)
        assert named in str(caught.value)

    @pytest.mark.parametrize("call", [
        lambda H: H.fuse(-HUGE, -HUGE),
        lambda H: convolve_h(H, _point(-HUGE), _point(0)),
        lambda H: support_product(H, [-HUGE], [-HUGE, 0]),
        lambda H: check_axioms(H, range(-HUGE)),
        lambda H: a_norm(H, _point(-HUGE)),
        lambda H: bump(H, range(3), range(-HUGE)).a_norm(),
        lambda H: leptin_search_interval(H, [-HUGE], "1/4").to_json_dict(),
    ], ids=["fuse", "convolve_h", "support_product", "check_axioms", "a_norm", "interval a_norm",
            "certificate listing"])
    def test_budget_names_a_huge_size_by_its_bits(self, su2, call):
        # -HUGE is a valid su2-hat label; every budget refuses the work it would cost
        with pytest.raises(CapacityError, match="<int of "):
            call(su2)

    def test_repr_of_a_plateau_past_ssize(self, su2):
        u = Su2IntervalBump(su2, 1, 2 ** 64)
        assert repr(u).startswith(f"<Su2IntervalBump on su2-hat: |K|=2, |V|={2 ** 64 + 1}, ")


class TestExact:
    @pytest.mark.parametrize("value,expected", [
        (3, Fraction(3)), (Fraction(-7, 2), Fraction(-7, 2)), ("-7/2", Fraction(-7, 2)),
        ("1.1", Fraction(11, 10)), (" 2e3 ", Fraction(2000)), ("1e-2", Fraction(1, 100)),
        (f"1e{MAX_EXACT_EXPONENT}", Fraction(10 ** MAX_EXACT_EXPONENT)),
        (f"1e-{MAX_EXACT_EXPONENT}", Fraction(1, 10 ** MAX_EXACT_EXPONENT)),
    ])
    def test_reads_exact_numbers(self, value, expected):
        assert exact(value, "x") == expected

    @pytest.mark.parametrize("value", [
        1.5, 2.0, True, None, [1], 1j, "abc", "1/0", "nan", "inf", "",
        f"1e{MAX_EXACT_EXPONENT + 1}", f"1e-{MAX_EXACT_EXPONENT + 1}", "1e1_000_000",
        "1e" + "9" * 5000, "1" * 5000,
    ])
    def test_refuses_at_once_naming_what(self, value):
        start = time.perf_counter()
        with pytest.raises(UsageError, match="^--flag: "):
            exact(value, "--flag")
        assert time.perf_counter() - start < 0.1

    def test_float_message_keeps_its_wording(self):
        with pytest.raises(UsageError, match="exact rational expected, got float"):
            exact(0.5, "epsilon")

    def test_spins_refuse_floats(self):
        assert twice_spin("3/2") == 3 and twice_spin(Fraction(1, 2)) == 1
        with pytest.raises(UsageError, match="exact rational expected, got float"):
            twice_spin(0.5)


class TestLabelChecks:
    def test_nonnegative_range_is_checked_without_a_walk(self, su2):
        start = time.perf_counter()
        su2.check_labels(range(10 ** 12))
        su2.check_labels(range(10 ** 12, -1, -1))
        assert time.perf_counter() - start < 0.01
        with pytest.raises(LabelDomainError, match="^-1 is not a label of su2-hat"):
            su2.check_labels(range(-1, 10 ** 12))

    def test_first_bad_label_is_named(self, s3):
        with pytest.raises(LabelDomainError, match="^7 is not a label of s3-hat"):
            s3.check_labels([0, 1, 7, [1]])
        with pytest.raises(LabelDomainError, match=r"^\[1\] is not a label of s3-hat"):
            s3.check_labels([0, [1], 7])
