"""Exact measure/function plumbing and the axiom suite."""

import math
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import (
    AxiomViolationError,
    CapacityError,
    FiniteFunction,
    FiniteMeasure,
    Hypergroup,
    LabelDomainError,
    UsageError,
    a_norm_su2,
    builtin_table,
    bump,
    check_axioms,
    convolve_h,
    finite_group_dual,
    involute,
    product_dual,
    su2_dual,
    support_product,
)
from hypergroups import core, duals
from hypergroups.core import (
    AxiomFailure,
    _associativity_failures,
    _convolve_h_loops,
    _support_product_loops,
    associativity_cost,
)
from oracles import S3Group, associativity_failures_loops, support_product_ordered_loops

half = Fraction(1, 2)


class TestFractionText:
    @given(st.fractions())
    def test_exact_reads_it_back(self, q):
        assert core.exact(core.fraction_text(q), "q") == q

    def test_integers_keep_their_denominator(self):
        assert core.fraction_text(Fraction(3)) == "3/1"
        assert core.fraction_text(Fraction(-7, 2)) == "-7/2"


class TestFiniteMeasure:
    def test_zero_masses_pruned(self):
        mu = FiniteMeasure({0: Fraction(1), 1: Fraction(0)})
        assert mu.support == (0,)
        assert mu.mass(1) == 0

    def test_negative_mass_rejected(self):
        with pytest.raises(UsageError):
            FiniteMeasure({0: Fraction(-1, 2)})

    def test_float_mass_rejected(self):
        with pytest.raises(UsageError):
            FiniteMeasure({0: 0.5})

    def test_point(self):
        mu = FiniteMeasure.point(3)
        assert mu.total() == 1
        assert mu.support == (3,)

    def test_is_a_nonnegative_finite_function(self):
        mu = FiniteMeasure({2: half, 1: Fraction(1, 3), 0: 0})
        assert isinstance(mu, FiniteFunction)
        assert FiniteMeasure.__slots__ == ()
        assert not hasattr(mu, "__dict__")
        assert mu.items() == [(1, Fraction(1, 3)), (2, half)]
        assert len(mu) == 2 and mu.value(1) == mu.mass(1)
        assert repr(mu) == "FiniteMeasure({1: 1/3, 2: 1/2})"

    def test_never_equals_a_plain_function(self):
        mu = FiniteMeasure({1: half})
        f = FiniteFunction({1: half})
        assert mu != f and f != mu
        assert not (mu == f) and not (f == mu)
        assert mu == FiniteMeasure({1: half})


class TestFiniteFunction:
    def test_support_is_nonzero_set(self):
        f = FiniteFunction({0: 1, 1: 0, 2: Fraction(3, 7)})
        assert f.support == (0, 2)

    def test_add_cancels(self):
        f = FiniteFunction({0: 1, 1: 2})
        g = FiniteFunction({1: -2})
        assert (f + g) == FiniteFunction({0: 1})

    def test_pointwise_product(self):
        f = FiniteFunction({0: 2, 1: 3})
        g = FiniteFunction({1: Fraction(1, 3), 2: 5})
        assert f * g == FiniteFunction({1: 1})

    def test_scale(self):
        f = FiniteFunction({0: 2})
        assert f.scale(half) == FiniteFunction({0: 1})
        assert not f.scale(0)

    def test_float_value_refused(self):
        with pytest.raises(UsageError, match="exact rational expected, got float"):
            FiniteFunction({0: 0.5})
        with pytest.raises(UsageError):
            FiniteFunction.point(0, 1.0)
        with pytest.raises(UsageError):
            FiniteFunction({0: 1}).scale(0.5)


class TestConvolvePoints:
    """Fusion of two point masses, H.fuse."""

    def test_su2_spot_value(self, su2):
        assert su2.fuse(1, 1) == FiniteMeasure(
            {0: Fraction(1, 4), 2: Fraction(3, 4)})

    def test_identity_left_right(self, su2, s3):
        for H, x in [(su2, 5), (s3, 2)]:
            assert H.fuse(H.identity, x) == FiniteMeasure.point(x)
            assert H.fuse(x, H.identity) == FiniteMeasure.point(x)

    def test_s3_rho_squared(self, s3):
        rho = 2
        assert s3.fuse(rho, rho) == FiniteMeasure(
            {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)})

    def test_bad_label(self, su2):
        with pytest.raises(LabelDomainError):
            su2.fuse(-1, 0)
        with pytest.raises(LabelDomainError):
            su2.fuse(half, 0)


class TestHaar:
    def test_su2_squares(self, su2):
        for n in range(0, 12):
            assert su2.haar(n) == (n + 1) ** 2

    def test_identity_normalization(self, su2, s3, q8):
        for H in (su2, s3, q8):
            assert H.haar(H.identity) == 1

    def test_s3_rho(self, s3):
        assert s3.haar(2) == 4

    def test_haar_times_identity_mass_is_one(self, s3, su2):
        for H, labels in [(s3, range(3)), (su2, range(7))]:
            for x in labels:
                mass = H.fuse(H.involution(x), x).mass(H.identity)
                assert H.haar(x) * mass == 1

    def test_haar_invariant_under_involution(self, z4, q8):
        for H in (z4, q8):
            for x in H.universe:
                assert H.haar(x) == H.haar(H.involution(x))

    def test_invalid_hypergroup_haar(self):
        # fusion that never reaches the identity
        class Broken(Hypergroup):
            def _rule(self, x, y):
                return {1: Fraction(1)}

            def _involution(self, x):
                return x

        broken = Broken(name="broken", identity=0, commutative=True, universe=[0, 1])
        with pytest.raises(AxiomViolationError):
            broken.haar(1)


class TestConvolveH:
    def test_identity_element(self, su2):
        d0 = FiniteFunction.point(0)
        assert convolve_h(su2, d0, d0) == d0

    def test_su2_half_with_half(self, su2):
        # literal substitution into the weighted-convolution formula:
        # (d_x *_h d_y)(z) = (d_x * d_y)(z) h(x) h(y) / h(z)
        x = 1
        expected = {}
        for z, mass in su2.fuse(x, x).items():
            expected[z] = mass * su2.haar(x) * su2.haar(x) / su2.haar(z)
        result = convolve_h(su2, FiniteFunction.point(x), FiniteFunction.point(x))
        assert result == FiniteFunction(expected)
        assert result == FiniteFunction({0: 4, 2: Fraction(4, 3)})

    def test_unit_of_the_algebra(self, s3):
        f = FiniteFunction({0: Fraction(2, 3), 2: Fraction(-1, 5)})
        assert convolve_h(s3, f, FiniteFunction.point(s3.identity)) == f
        assert convolve_h(s3, FiniteFunction.point(s3.identity), f) == f

    def test_support_containment(self, su2):
        f = FiniteFunction({0: 1, 2: 3})
        g = FiniteFunction({1: Fraction(1, 2), 3: 1})
        conv = convolve_h(su2, f, g)
        allowed = support_product(su2, f.support, g.support)
        assert set(conv.support) <= set(allowed)

    def test_commutative_on_commutative_hypergroup(self, s3):
        f = FiniteFunction({0: 1, 2: Fraction(5, 7)})
        g = FiniteFunction({1: 2, 2: Fraction(-1, 3)})
        assert convolve_h(s3, f, g) == convolve_h(s3, g, f)


class TestInvolute:
    def test_su2_self_dual(self, su2):
        f = FiniteFunction({0: 1, 3: Fraction(2, 5)})
        assert involute(su2, f) == f

    def test_point_maps_to_involute(self, q8):
        for x in q8.universe:
            assert involute(q8, FiniteFunction.point(x)) == \
                FiniteFunction.point(q8.involution(x))


class TestSupportProduct:
    def test_su2_example(self, su2):
        got = support_product(su2, {1}, {0, 1, 2})
        assert got == frozenset({0, 1, 2, 3})

    def test_identity_factor(self, s3):
        assert support_product(s3, {s3.identity}, {0, 2}) == frozenset({0, 2})

    def test_empty(self, su2):
        assert support_product(su2, {1, 2}, set()) == frozenset()
        assert support_product(su2, set(), {1}) == frozenset()


_S3 = finite_group_dual(builtin_table("s3"))
_SU2_X_S3 = product_dual([su2_dual(), _S3])
_MIRROR_DUALS = {
    "s3": (_S3, st.sampled_from(sorted(_S3.universe))),
    "s3xz4": (product_dual([_S3, finite_group_dual(builtin_table("z4"))]), None),
    "su2xs3": (_SU2_X_S3, st.tuples(st.integers(0, 12), st.sampled_from(sorted(_S3.universe)))),
}


class TestMirrorPairs:
    """Each unordered pair fused once when H is commutative and A = B."""

    @pytest.mark.parametrize("name", sorted(_MIRROR_DUALS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_ordered_loops(self, name, data):
        H, labels = _MIRROR_DUALS[name]
        if labels is None:
            labels = st.sampled_from(sorted(H.universe))
        A = data.draw(st.lists(labels, max_size=8))
        # the same set in another order and with repeats, and any other set
        B = data.draw(st.permutations(A + A[:2]) | st.lists(labels, max_size=8))
        for left, right in [(A, B), (A, A), (B, A)]:
            assert (_support_product_loops(H, left, right)
                    == support_product_ordered_loops(H, left, right))

    @pytest.mark.parametrize("n", [1, 2, 12])
    def test_su2_x_s3_fuses_each_unordered_pair_once(self, monkeypatch, n):
        # an infinite product keeps no fusion memo, so every fusion is a rule call
        calls = []
        original = duals.ProductDual._rule

        def counted(self, x, y):
            calls.append((x, y))
            return original(self, x, y)

        A = [(k, i) for k in range(4) for i in range(3)][:n]
        expected = support_product_ordered_loops(_SU2_X_S3, A, A)
        monkeypatch.setattr(duals.ProductDual, "_rule", counted)
        assert support_product(_SU2_X_S3, A, list(reversed(A))) == expected
        assert len(calls) == len({frozenset(pair) for pair in calls}) == n * (n + 1) // 2
        # two different sets still fuse every ordered pair
        calls.clear()
        support_product(_SU2_X_S3, A, A[1:])
        assert len(calls) == n * (n - 1)


class _CorruptedS3(Hypergroup):
    """s3's fusion with extra mass 1/10 at the identity in fuse(2, 2), and dimension 1."""

    def __init__(self, s3):
        self.s3 = s3
        super().__init__(name="corrupted-s3", identity=s3.identity, commutative=True,
                         universe=range(3))

    def _rule(self, x, y):
        masses = dict(self.s3.fuse(x, y).items())
        if (x, y) == (2, 2):
            masses[0] = masses[0] + Fraction(1, 10)
        return masses

    def _involution(self, x):
        return self.s3.involution(x)

    def label_str(self, x):
        return self.s3.label_str(x)


class TestCheckAxioms:
    def test_su2_sample_passes(self, su2):
        report = check_axioms(su2, range(9))  # spins up to 4
        assert report.ok
        assert report.checks["associativity"] == 9 ** 3

    def test_s3_full_universe(self, s3):
        assert check_axioms(s3, s3.universe).ok

    def test_corrupted_fusion_reports_witness(self, s3):
        report = check_axioms(_CorruptedS3(s3), range(3))
        assert not report.ok
        norm_failures = [f for f in report.failures if f.check == "normalization"]
        assert norm_failures and norm_failures[0].labels == ("rho", "rho")

    def test_summary_lists_each_failure(self, s3):
        report = check_axioms(_CorruptedS3(s3), range(3))
        lines = report.summary().split("\n")
        assert lines[0].endswith(": FAIL (3 sample labels)")
        fails = [line for line in lines if line.startswith("  FAIL ")]
        assert len(fails) == len(report.failures)
        assert "  FAIL normalization at (rho, rho): total mass" in fails[0]

    def test_empty_sample_rejected(self, su2):
        with pytest.raises(UsageError):
            check_axioms(su2, [])

    def test_report_serializes(self, s3):
        doc = check_axioms(s3, s3.universe).to_json_dict()
        assert doc["ok"] is True
        assert doc["failures"] == []

    def test_each_ordered_pair_is_fused_once_per_call(self, su2, monkeypatch):
        # su2-hat keeps no fusion cache; check_axioms keeps one for the call
        pairs = []
        fuse = Hypergroup._fuse

        def counted(self, x, y):
            pairs.append((x, y))
            return fuse(self, x, y)

        monkeypatch.setattr(Hypergroup, "_fuse", counted)
        first = check_axioms(su2, range(15))
        assert len(pairs) == len(set(pairs)) == 645
        assert su2._fusion_cache == {}
        pairs.clear()
        monkeypatch.undo()
        assert check_axioms(su2, range(15)) == first


@st.composite
def su2_labels(draw):
    return draw(st.integers(min_value=0, max_value=8))


class TestRandomizedLaws:
    @given(x=su2_labels(), y=su2_labels())
    @settings(max_examples=40, deadline=None)
    def test_fusion_mass_always_one(self, x, y):
        H = _SU2
        assert H.fuse(x, y).total() == 1

    @given(x=su2_labels(), y=su2_labels(), z=su2_labels())
    @settings(max_examples=25, deadline=None)
    def test_weighted_convolution_associative(self, x, y, z):
        H = _SU2
        dx, dy, dz = (FiniteFunction.point(t) for t in (x, y, z))
        left = convolve_h(H, convolve_h(H, dx, dy), dz)
        right = convolve_h(H, dx, convolve_h(H, dy, dz))
        assert left == right

    @given(x=su2_labels(), y=su2_labels())
    @settings(max_examples=25, deadline=None)
    def test_su2_clebsch_gordan_support(self, x, y):
        got = set(_SU2.fuse(x, y).support)
        expected = set(range(abs(x - y), x + y + 1, 2))
        assert got == expected


# module-level dual for hypothesis tests (fixtures and @given do not mix well)
from hypergroups import su2_dual as _su2_dual  # noqa: E402

_SU2 = _su2_dual()


# ---------------------------------------------------------------------------
# The exact engines against the generic loops they replace
# ---------------------------------------------------------------------------

_small_rational = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_huge_rational = st.builds(Fraction, st.integers(-10 ** 25, 10 ** 25),
                           st.integers(1, 10 ** 20))
_su2_function = st.dictionaries(
    st.integers(min_value=0, max_value=14), _small_rational | _huge_rational, max_size=6,
).map(FiniteFunction)
_su2_set = st.sets(st.integers(min_value=0, max_value=20), max_size=6)


class TestSu2ExactEngine:
    @given(f=_su2_function, g=_su2_function)
    @settings(max_examples=200, deadline=None)
    def test_convolve_matches_loops(self, f, g):
        assert convolve_h(_SU2, f, g) == _convolve_h_loops(_SU2, f, g)

    @given(A=_su2_set, B=_su2_set)
    @settings(max_examples=200, deadline=None)
    def test_support_product_matches_loops(self, A, B):
        assert support_product(_SU2, A, B) == _support_product_loops(_SU2, A, B)

    @given(labels=st.lists(st.integers(min_value=0, max_value=500), max_size=20)
           | st.builds(range, st.integers(0, 500), st.integers(-5, 700)))
    @settings(max_examples=100, deadline=None)
    def test_haar_sum_matches_loop(self, labels):
        assert _SU2.haar_sum(labels) == Hypergroup._haar_sum(_SU2, labels)

    @pytest.mark.parametrize("labels", [range(0), range(0, 1), range(3, 8), range(9, 2),
                                        range(0, 10, 2), range(5, -1, -1)])
    def test_haar_sum_of_ranges(self, labels):
        assert _SU2.haar_sum(labels) == sum((x + 1) ** 2 for x in labels)

    def test_haar_sum_range_below_zero_raises(self):
        with pytest.raises(LabelDomainError):
            _SU2.haar_sum(range(-1, 3))

    def test_label_zero_and_empty(self):
        d0 = FiniteFunction.point(0, Fraction(-3, 7))
        assert convolve_h(_SU2, d0, d0) == FiniteFunction.point(0, Fraction(9, 49))
        assert convolve_h(_SU2, d0, FiniteFunction({})) == FiniteFunction({})
        assert support_product(_SU2, {0}, {0}) == frozenset({0})
        assert _SU2.haar_sum([]) == 0

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "1"])
    def test_bad_labels_raise(self, bad):
        with pytest.raises(LabelDomainError):
            convolve_h(_SU2, FiniteFunction.point(bad), FiniteFunction.point(1))
        with pytest.raises(LabelDomainError):
            support_product(_SU2, {1}, {bad})
        with pytest.raises(LabelDomainError):
            _SU2.haar_sum([0, bad])

    def test_axioms_leave_the_fusion_cache_empty(self):
        H = _su2_dual()
        assert check_axioms(H, range(15)).ok
        assert H._fusion_cache == {}


class TestSu2Budgets:
    @pytest.mark.parametrize("call", [
        lambda: convolve_h(_SU2, FiniteFunction.point(10 ** 6), FiniteFunction.point(10 ** 6)),
        lambda: convolve_h(_SU2, FiniteFunction.point(0), FiniteFunction.point(2 * 10 ** 6)),
        lambda: support_product(_SU2, range(50000), range(50000)),  # dense: both engines over
        lambda: support_product(_SU2, [10 ** 6, 10 ** 6 + 2], [10 ** 6]),  # sparse: both over
        lambda: a_norm_su2(FiniteFunction({0: 1, 200000: 1})),
    ])
    def test_guard_fires_before_allocating(self, call):
        # each refused request would build a list or array of 10^5 to 10^6 entries
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_u_product_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(duals, "MAX_U_PRODUCT_WORK", 12)
        f, g = FiniteFunction.point(2), FiniteFunction.point(3)
        assert convolve_h(_SU2, f, g) == _convolve_h_loops(_SU2, f, g)
        assert support_product(_SU2, [1, 2], [0, 3]) == frozenset({1, 2, 3, 4, 5})
        with pytest.raises(CapacityError):
            convolve_h(_SU2, g, g)
        with pytest.raises(CapacityError):  # and the loops would emit 1 + 6 + 1 + 6 labels
            support_product(_SU2, [5, 7], [0, 5])
        # labels are checked first, and empty products are not refused
        with pytest.raises(LabelDomainError):
            convolve_h(_SU2, FiniteFunction.point(-1), FiniteFunction.point(99))
        assert convolve_h(_SU2, FiniteFunction.point(99), FiniteFunction({})) == FiniteFunction({})

    def test_sparse_high_labels_take_the_loops(self):
        # the U-series would do 40001^2 multiply-adds; the loops emit 40001 labels
        assert duals._fusion_loop_work([40000], [40000]) == 40001
        got = support_product(_SU2, [40000], [40000])
        assert got == _support_product_loops(_SU2, [40000], [40000])
        assert got == frozenset(range(0, 80001, 2))
        assert support_product(_SU2, [0], [2 * 10 ** 6]) == frozenset({2 * 10 ** 6})

    def test_loop_work_is_the_sum_over_pairs(self):
        A, B = [3, 7, 10, 10], [0, 5, 12]
        assert duals._fusion_loop_work(A, B) == sum(min(a, b) + 1 for a in A for b in B)

    def test_loop_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(duals, "MAX_U_PRODUCT_WORK", 12)
        # U-series work 12 * 4 = 48 is over; the loops emit 4 + 4 labels, and 1 + 4 below
        assert support_product(_SU2, [3, 11], [3]) == frozenset({0, 2, 4, 6, 8, 10, 12, 14})
        assert support_product(_SU2, [3], [0, 3]) == frozenset({0, 2, 3, 4, 6})
        # inputs the U-series takes keep it
        with mock.patch.object(duals, "_support_product_loops") as loops:
            assert support_product(_SU2, [1, 2], [0, 3]) == frozenset({1, 2, 3, 4, 5})
        loops.assert_not_called()

    def test_series_degree_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(duals, "MAX_U_SERIES_DEGREE", 4)
        assert a_norm_su2(FiniteFunction.point(4)) > 0
        with pytest.raises(CapacityError):
            a_norm_su2(FiniteFunction.point(5))

    def test_sizes_in_use_fit(self):
        start = time.perf_counter()
        u = bump(_SU2, [2], range(500))  # the plateau of K = {0, 1, 2}, as a dictionary
        assert time.perf_counter() - start < 1.0
        assert max(u.support) == 1000 <= core.MAX_U_SERIES_DEGREE
        assert 502 * 500 <= core.MAX_U_PRODUCT_WORK


class _Perturbed(Hypergroup):
    """``base``'s fusion with extra mass ``delta`` at ``z`` in fuse(x, y), never memoised."""

    def __init__(self, base, corruptions, name):
        self.base = base
        self.extra = {}
        for x, y, z, delta in corruptions:
            self.extra.setdefault((x, y), []).append((z, delta))
        super().__init__(name=name, identity=base.identity, commutative=False)

    def _rule(self, x, y):
        masses = dict(self.base.fuse(x, y).items())
        for z, delta in self.extra.get((x, y), []):
            masses[z] = masses.get(z, 0) + delta
        return masses

    def _involution(self, x):
        return self.base.involution(x)

    def _is_label(self, x):
        return self.base._is_label(x)

    def label_str(self, x):
        return self.base.label_str(x)


class _SelfInverseS3(S3Group):
    """S3 with the identity map as its involution, which the 3-cycles break."""

    def _involution(self, x):
        return x


_E, _SWAP, _CYCLE = (0, 1, 2), (1, 0, 2), (1, 2, 0)


class TestAxiomWitnessesOnS3:
    """Each pair law's failure and its witness, on the group S3 with point-mass fusion."""

    def test_the_group_passes(self):
        H = S3Group()
        report = check_axioms(H, H.universe)
        assert report.ok and "commutativity" not in report.checks

    @pytest.mark.parametrize("pair,side", [((_E, _SWAP), "left"), ((_SWAP, _E), "right")])
    def test_identity(self, pair, side):
        H = _Perturbed(S3Group(), [(*pair, _CYCLE, half)], "corrupted-s3-group")
        failures = [f for f in check_axioms(H, S3Group.ELEMENTS).failures if f.check == "identity"]
        assert failures == [AxiomFailure("identity", (str(_SWAP),), f"fusion with identity on "
                                         f"the {side} is not a point mass")]

    def test_inverse_support_and_involution(self):
        report = check_axioms(_SelfInverseS3(), S3Group.ELEMENTS)
        inverse = [f.labels for f in report.failures if f.check == "inverse_support"]
        assert inverse == [(str(_CYCLE),), (str((2, 0, 1)),)]
        swapped = {f.labels for f in report.failures if f.check == "involution_antihom"}
        assert swapped == {(str(x), str(y)) for x in S3Group.ELEMENTS for y in S3Group.ELEMENTS
                           if _compose(x, y) != _compose(y, x)}
        assert len(swapped) == 18

    def test_commutativity(self):
        # no universe, so no memo serves fuse(y, x) from fuse(x, y)
        report = check_axioms(S3Group(commutative=True, finite=False), S3Group.ELEMENTS)
        assert {f.check for f in report.failures} == {"commutativity"}
        assert {f.labels for f in report.failures} == {
            (str(x), str(y)) for x in S3Group.ELEMENTS for y in S3Group.ELEMENTS
            if _compose(x, y) != _compose(y, x)}


def _compose(x, y):
    return tuple(x[i] for i in y)


def _engine_and_oracle(H, sample):
    """Associativity failures of the contraction and of the loops, and the dtypes used."""
    S = sorted(sample)
    T = sorted(support_product(H, S, S))
    W = sorted(support_product(H, T, S) | support_product(H, S, T))
    with _observed_paths() as calls:
        got = _associativity_failures(H, S, T, W)
    want = associativity_failures_loops(H, [(x, y, z) for x in S for y in S for z in S])
    return got, want, {dtype for _, _, dtype in calls}


@contextmanager
def _observed_paths():
    """The (|T|, m, dtype) of each _contraction_dtype call inside the block, in order."""
    calls = []
    real = core._contraction_dtype

    def spy(t, m):
        calls.append((t, m, real(t, m)))
        return calls[-1][2]

    with mock.patch.object(core, "_contraction_dtype", spy):
        yield calls


def _int64_path():
    """The float64 band closed, so every contraction under 2^63 runs in int64."""
    return mock.patch.object(core, "FLOAT64_LIMIT", 0)


_s3_corruptions = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
              st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=10)),
    min_size=1, max_size=3)


def _s3():
    from hypergroups import builtin_table, finite_group_dual
    return finite_group_dual(builtin_table("s3"))


_su2_corruption = st.tuples(st.integers(0, 16), st.integers(0, 8), st.integers(0, 24),
                            st.fractions(min_value=Fraction(1, 10 ** 12), max_value=1))


class TestAssociativityEngine:
    @given(corruptions=st.lists(_su2_corruption, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_su2_object_path_matches_loops(self, corruptions):
        H = _Perturbed(_SU2, corruptions, "corrupted-su2")
        got, want, dtypes = _engine_and_oracle(H, range(9))
        assert dtypes == {object}
        assert got == want

    def test_su2_object_path_catches_a_corruption(self):
        H = _Perturbed(_SU2, [(2, 3, 1, Fraction(1, 9))], "corrupted-su2")
        got, want, dtypes = _engine_and_oracle(H, range(9))
        assert dtypes == {object}
        assert got and got == want

    @given(corruptions=_s3_corruptions)
    @settings(max_examples=40, deadline=None)
    def test_s3_int64_path_matches_loops(self, corruptions):
        H = _Perturbed(_s3(), corruptions, "corrupted-s3")
        with _int64_path():
            got, want, dtypes = _engine_and_oracle(H, range(3))
        assert dtypes == {np.int64}
        assert got == want

    @given(corruptions=_s3_corruptions)
    @settings(max_examples=40, deadline=None)
    def test_s3_float64_path_matches_loops(self, corruptions):
        H = _Perturbed(_s3(), corruptions, "corrupted-s3")
        got, want, dtypes = _engine_and_oracle(H, range(3))
        assert dtypes == {np.float64}
        assert got == want

    def _su2_paths(self):
        """(weighted report, unweighted report, their paths) of check_axioms(su2, range(15))."""
        with _observed_paths() as calls:
            weighted = check_axioms(_SU2, range(15))
            with mock.patch.object(type(_SU2), "_dimension", Hypergroup._dimension):
                unweighted = check_axioms(_su2_dual(), range(15))
        assert weighted.ok
        assert weighted.to_json_dict() == unweighted.to_json_dict()
        return [dtype for _, _, dtype in calls]

    def test_su2_runs_in_int64_with_dimension_weights(self):
        with _int64_path():
            assert self._su2_paths() == [np.int64, object]

    def test_su2_runs_in_float64_with_dimension_weights(self):
        assert self._su2_paths() == [np.float64, object]

    @pytest.mark.parametrize("above", [False, True])
    def test_float64_band_ends_at_2_53(self, above):
        # on S3 weighted by dimension, |T| = 3, L = 1 and the scaled masses are the
        # multiplicities; the corruption makes the one of 0 in fuse(0, 0) m
        m = math.isqrt((2 ** 53 - 1) // 3) + above
        assert (3 * m * m < 2 ** 53) is not above
        s3 = _s3()
        H = _Perturbed(s3, [(0, 0, 0, Fraction(m - 1))], "corrupted-s3")
        H._dimension = s3._dimension
        with _observed_paths() as calls:
            got, want, _ = _engine_and_oracle(H, range(3))
        assert calls == [(3, m, np.int64 if above else np.float64)]
        assert got and got == want

    def test_every_path_names_the_same_failures_in_order(self):
        H = _Perturbed(_SU2, [(2, 3, 1, Fraction(1, 9)), (4, 4, 2, Fraction(2, 7)),
                              (6, 1, 7, Fraction(1, 3))], "corrupted-su2")
        H._dimension = _SU2._dimension
        got, want, dtypes = _engine_and_oracle(H, range(9))
        assert dtypes == {np.float64}
        assert len(want) > 3 and got == want
        for dtype in (np.int64, object):
            with mock.patch.object(core, "_contraction_dtype", lambda t, m: dtype):
                assert _engine_and_oracle(H, range(9)) == (want, want, {dtype})

    def test_a_support_label_missing_from_t_is_an_invariant_error(self, s3):
        # fuse(rho, rho) holds rho, which this T leaves out
        with pytest.raises(core.InternalInvariantError, match="missing from support_product"):
            _associativity_failures(s3, [0, 1, 2], [0, 1], [0, 1, 2])

    def test_dimensions(self, s3, q8):
        from hypergroups import product_dual
        assert [_SU2.dimension(n) for n in range(4)] == [1, 2, 3, 4]
        assert [q8.dimension(i) for i in range(5)] == [1, 1, 1, 1, 2]
        prod = product_dual([_SU2, s3])
        assert prod.dimension((3, 2)) == 8
        assert Hypergroup._dimension(s3, 2) == 1
        with pytest.raises(LabelDomainError):
            s3.dimension(3)

    @given(corruptions=st.lists(_su2_corruption, min_size=1, max_size=3))
    @settings(max_examples=6, deadline=None)
    def test_weighted_corruptions_match_loops(self, corruptions):
        H = _Perturbed(_SU2, corruptions, "corrupted-su2")
        H._dimension = _SU2._dimension
        got, want, _ = _engine_and_oracle(H, range(9))
        assert got == want

    def test_corrupted_s3_through_check_axioms(self, s3):
        report = check_axioms(_CorruptedS3(s3), range(3))
        triples = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        want = associativity_failures_loops(_CorruptedS3(s3), triples)
        assert want
        assert [f for f in report.failures if f.check == "associativity"] == want


class TestAssociativityBudget:
    def test_cost_closed_form(self):
        assert associativity_cost(15, 29, 43) == (63285, 8417250)

    def test_guard_fires_before_allocating(self):
        H = _su2_dual()
        entries, _ = associativity_cost(50, 99, 148)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                check_axioms(H, range(50))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * entries // 100
        assert H._fusion_cache == {}

    def test_samples_in_use_fit(self, s3, q8, z2):
        from hypergroups import product_dual
        big = product_dual([s3, q8, z2])
        for H, sample in [(_SU2, range(15)), (big, big.universe)]:
            S = sorted(sample)
            T = support_product(H, S, S)
            W = support_product(H, T, S) | support_product(H, S, T)
            entries, work = associativity_cost(len(S), len(T), len(W))
            assert entries <= core.MAX_ASSOCIATIVITY_ENTRIES
            assert work <= core.MAX_ASSOCIATIVITY_WORK
