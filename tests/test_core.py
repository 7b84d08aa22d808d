"""Exact measure/function plumbing and the axiom suite."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import (
    AxiomViolationError,
    FiniteFunction,
    FiniteMeasure,
    Hypergroup,
    LabelDomainError,
    UsageError,
    check_axioms,
    convolve_h,
    convolve_points,
    haar,
    involute,
    support_product,
)

half = Fraction(1, 2)


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

    def test_map_labels(self):
        mu = FiniteMeasure({1: half, 2: half})
        assert mu.map_labels(lambda x: -x) == FiniteMeasure({-1: half, -2: half})


class TestFiniteFunction:
    def test_support_is_nonzero_set(self):
        f = FiniteFunction({0: 1, 1: 0, 2: Fraction(3, 7)})
        assert f.support == (0, 2)

    def test_lane_mismatch(self):
        f = FiniteFunction({0: 1})
        g = FiniteFunction({0: 1.0}, lane="float")
        with pytest.raises(UsageError):
            f + g

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

    def test_float_lane(self):
        f = FiniteFunction({0: 0.5}, lane="float")
        assert f.lane == "float"
        assert f.value(0) == 0.5


class TestConvolvePoints:
    def test_su2_spot_value(self, su2):
        assert convolve_points(su2, 1, 1) == FiniteMeasure(
            {0: Fraction(1, 4), 2: Fraction(3, 4)})

    def test_identity_left_right(self, su2, s3):
        for H, x in [(su2, 5), (s3, 2)]:
            assert convolve_points(H, H.identity, x) == FiniteMeasure.point(x)
            assert convolve_points(H, x, H.identity) == FiniteMeasure.point(x)

    def test_s3_rho_squared(self, s3):
        rho = 2
        assert convolve_points(s3, rho, rho) == FiniteMeasure(
            {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)})

    def test_bad_label(self, su2):
        with pytest.raises(LabelDomainError):
            convolve_points(su2, -1, 0)
        with pytest.raises(LabelDomainError):
            convolve_points(su2, half, 0)


class TestHaar:
    def test_su2_squares(self, su2):
        for n in range(0, 12):
            assert haar(su2, n) == (n + 1) ** 2

    def test_identity_normalization(self, su2, s3, q8):
        for H in (su2, s3, q8):
            assert haar(H, H.identity) == 1

    def test_s3_rho(self, s3):
        assert haar(s3, 2) == 4

    def test_haar_times_identity_mass_is_one(self, s3, su2):
        for H, labels in [(s3, range(3)), (su2, range(7))]:
            for x in labels:
                mass = H.fuse(H.involution(x), x).mass(H.identity)
                assert haar(H, x) * mass == 1

    def test_haar_invariant_under_involution(self, z4, q8):
        for H in (z4, q8):
            for x in H.universe:
                assert haar(H, x) == haar(H, H.involution(x))

    def test_invalid_hypergroup_haar(self):
        # fusion that never reaches the identity
        broken = Hypergroup(
            name="broken",
            fuse=lambda x, y: {1: Fraction(1)},
            involution=lambda x: x,
            identity=0,
            commutative=True,
            universe=[0, 1],
        )
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

    def test_lane_mismatch(self, su2):
        with pytest.raises(UsageError):
            convolve_h(su2, FiniteFunction.point(0),
                       FiniteFunction({0: 1.0}, lane="float"))

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


def _corrupted_s3(s3):
    def bad_fuse(x, y):
        masses = dict(s3.fuse(x, y).items())
        if (x, y) == (2, 2):
            masses[0] = masses[0] + Fraction(1, 10)
        return masses

    return Hypergroup(
        name="corrupted-s3",
        fuse=bad_fuse,
        involution=s3.involution,
        identity=s3.identity,
        commutative=True,
        universe=range(3),
        labeler=s3.label_str,
    )


class TestCheckAxioms:
    def test_su2_sample_passes(self, su2):
        report = check_axioms(su2, range(9))  # spins up to 4
        assert report.ok
        assert report.checks["associativity"] == 9 ** 3

    def test_s3_full_universe(self, s3):
        assert check_axioms(s3, s3.universe).ok

    def test_corrupted_fusion_reports_witness(self, s3):
        report = check_axioms(_corrupted_s3(s3), range(3))
        assert not report.ok
        norm_failures = [f for f in report.failures if f.check == "normalization"]
        assert norm_failures and norm_failures[0].labels == ("rho", "rho")

    def test_empty_sample_rejected(self, su2):
        with pytest.raises(UsageError):
            check_axioms(su2, [])

    def test_report_serializes(self, s3):
        doc = check_axioms(s3, s3.universe).to_json_dict()
        assert doc["ok"] is True
        assert doc["failures"] == []


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
