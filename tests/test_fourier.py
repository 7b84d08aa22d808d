"""Norm family and plateau functions."""

import json
import math
import pickle
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergroups import (
    CapacityError,
    FiniteFunction,
    InternalInvariantError,
    NumericError,
    QuadratureConfig,
    UsageError,
    a_norm,
    a_norm_exact_finite,
    a_norm_su2,
    build_witness,
    bump,
    leptin_ratio,
    lp_h_norm,
    su2_dual,
    support_product,
)
from hypergroups import duals, fourier, su2num
from hypergroups.cli import run
from hypergroups.duals import su2_u_coefficients
from hypergroups.fourier import BumpFunction, Plateau, Su2IntervalBump, lp_h_power_sum
from hypergroups.segal import absorption_witness
from oracles import a_norm_su2_antiderivative

half = Fraction(1, 2)
_SU2 = su2_dual()


def a_norm_antiderivative(v: FiniteFunction) -> float:
    return a_norm_su2_antiderivative({n: float(x) for n, x in v.items()})


class TestQuadratureConfig:
    def test_defaults(self):
        assert QuadratureConfig() == QuadratureConfig(tolerance=1e-9)

    def test_validation(self):
        for tolerance in (0, -1e-9, math.nan, math.inf):
            with pytest.raises(UsageError):
                QuadratureConfig(tolerance=tolerance)


class TestLpNorm:
    def test_point_masses_have_haar_l1(self, su2):
        for n in range(7):
            assert lp_h_norm(su2, FiniteFunction.point(n), 1) == (n + 1) ** 2

    def test_zero_function(self, su2):
        zero = FiniteFunction({})
        assert lp_h_norm(su2, zero, 1) == 0
        assert lp_h_norm(su2, zero, 2) == 0
        assert lp_h_norm(su2, zero, math.inf) == 0

    def test_bump_l2_lower_bound(self, su2):
        u = bump(su2, [1], [0, 1, 2])
        assert lp_h_norm(su2, u.function, 2) >= 2.0 - 1e-12
        assert lp_h_power_sum(su2, u.function, 2) >= 4

    def test_p_below_one_rejected(self, su2):
        with pytest.raises(UsageError):
            lp_h_norm(su2, FiniteFunction.point(0), half)

    def test_sup_norm(self, su2):
        f = FiniteFunction({0: Fraction(-3, 2), 4: 1})
        assert lp_h_norm(su2, f, math.inf) == Fraction(3, 2)

    def test_exact_lane_p1_is_fraction(self, s3):
        f = FiniteFunction({0: half, 2: Fraction(1, 3)})
        value = lp_h_norm(s3, f, 1)
        assert isinstance(value, Fraction)
        assert value == half + 4 * Fraction(1, 3)

    def test_triangle_and_homogeneity_sampled(self, s3):
        rng = random.Random(7)
        for _ in range(20):
            f = FiniteFunction({i: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                                for i in range(3)})
            g = FiniteFunction({i: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                                for i in range(3)})
            for p in (1, Fraction(3, 2), 2):
                lhs = float(lp_h_norm(s3, f + g, p))
                rhs = float(lp_h_norm(s3, f, p)) + float(lp_h_norm(s3, g, p))
                assert lhs <= rhs + 1e-9
                scaled = float(lp_h_norm(s3, f.scale(Fraction(-7, 3)), p))
                assert scaled == pytest.approx(float(Fraction(7, 3)) * float(lp_h_norm(s3, f, p)), rel=1e-12)


class TestSegalNorm:
    """The central Segal norm is the lp(H, h) norm of the Fourier coefficients."""

    def test_identity_point(self, su2, s3):
        for H in (su2, s3):
            for p in (1, Fraction(3, 2), 2):
                assert float(lp_h_norm(H, FiniteFunction.point(H.identity), p)) == pytest.approx(1.0)

    def test_su2_point_mass_p2(self, su2):
        for n in range(6):
            value = lp_h_norm(su2, FiniteFunction.point(n), 2)
            assert value == pytest.approx(n + 1.0)

    def test_interval_indicator_p1(self, su2):
        for m2 in (0, 1, 3, 6):
            v = FiniteFunction.indicator(range(m2 + 1))
            expected = sum(j * j for j in range(1, m2 + 2))
            assert lp_h_norm(su2, v, 1) == expected

    def test_p_range_enforced(self, capsys):
        # norms reports segal_cp only where the norm is a Segal norm, p in [1, 2]
        for p in ("3", "5/2"):
            assert "segal_cp" not in _norms_report(capsys, "su2", "0=1", p)

    @pytest.mark.parametrize("c,p", [
        (2, 2000), (2, Fraction(4001, 2)), (Fraction(10) ** 300, Fraction(3, 2)),
        (Fraction(1, 3), 3000), (Fraction(-5, 7), 10 ** 6), (Fraction(3, 2), 3),
    ])
    def test_point_masses_far_out_of_float_range(self, s3, c, p):
        # h(sgn) = 1 and h(rho) = 4, so the norms are |c| and |c| 4^(1/p)
        sgn, rho = s3.table.irrep_index("sgn"), s3.table.irrep_index("rho")
        assert lp_h_norm(s3, FiniteFunction({sgn: c}), p) == pytest.approx(abs(c), rel=1e-12)
        assert lp_h_norm(s3, FiniteFunction({rho: 2}), p) == pytest.approx(
            2 * 4 ** (1 / p), rel=1e-12)

    @pytest.mark.parametrize("r", [half, Fraction(1000001, 1000000)])
    def test_huge_integer_p_takes_no_exact_power(self, s3, r):
        # r^p exactly at p = 5 * 10^8 is an integer of 60 MB and more; the floats take no time
        f = FiniteFunction({s3.identity: 1, s3.table.irrep_index("rho"): r})
        p = 5 * 10 ** 8
        start = time.perf_counter()
        expected = max(1.0, float(r) * 4 ** (1 / p))  # the larger term dominates
        assert lp_h_norm(s3, f, p) == pytest.approx(expected, rel=1e-12)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("values,p,lp_h", [
        ("sgn=2", "2000", 2.0), ("sgn=2", "4001/2", 2.0),
        ("sgn=1e300", "3/2", 1e300), ("sgn=1/3", "3000", 1 / 3),
    ])
    def test_norms_report_far_out_of_float_range(self, capsys, values, p, lp_h):
        assert _norms_report(capsys, "s3", values, p)["lp_h"] == pytest.approx(lp_h, rel=1e-12)

    def test_p1_equals_l1_exactly(self, capsys, s3):
        f = FiniteFunction({0: Fraction(2, 7), 2: Fraction(-1, 3)})
        for p in ("1", "3/2", "2"):
            doc = _norms_report(capsys, "s3", "triv=2/7;rho=-1/3", p)
            assert doc["segal_cp"] == doc["lp_h"] == float(lp_h_norm(s3, f, Fraction(p)))
        assert doc["l1_h"] == "34/21"


def _norms_report(capsys, dual, values, p):
    assert run(["norms", "--dual", dual, "--values", values, "--p", p,
                "--format", "json", "--no-timestamp"]) == 0
    return json.loads(capsys.readouterr().out)["norms"]


class TestANormFinite:
    def test_s3_two_dimensional_row(self, s3):
        assert a_norm_exact_finite(s3, FiniteFunction.point(2)) == Fraction(4, 3)

    def test_one_dispatcher_per_family(self, s3, su2):
        v = FiniteFunction({0: half, 2: 1})
        assert a_norm(s3, v) == a_norm_exact_finite(s3, v)
        u = bump(s3, [2], [0, 2])
        assert u.a_norm() == a_norm_exact_finite(s3, u.function)
        config = QuadratureConfig(tolerance=1e-7)
        assert a_norm(su2, v, config) == a_norm_su2(v, config)
        u = bump(su2, [1], [0, 1, 2])
        assert u.a_norm(config) == a_norm_su2(u.function, config)

    def test_identity_point(self, s3, q8, z4):
        for H in (s3, q8, z4):
            assert a_norm_exact_finite(H, FiniteFunction.point(H.identity)) == 1

    def test_regular_character_weights(self, s3):
        ones = FiniteFunction.indicator(range(3))
        assert a_norm_exact_finite(s3, ones) == 1

    def test_float_fallback_for_irrational_modulus(self, z4):
        # 1 + i has modulus sqrt(2): the class sum falls back to floats
        v = FiniteFunction({0: 1, 1: 1})
        value = a_norm_exact_finite(z4, v)
        assert isinstance(value, float)
        expected = (2 + 2 * math.sqrt(2)) / 4
        assert value == pytest.approx(expected, abs=1e-12)

    def test_submultiplicative_on_samples(self, s3, q8):
        rng = random.Random(11)
        for H in (s3, q8):
            n = len(H.universe)
            for _ in range(25):
                v = FiniteFunction({i: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                    for i in range(n)})
                w = FiniteFunction({i: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                    for i in range(n)})
                lhs = float(a_norm_exact_finite(H, v * w))
                rhs = float(a_norm_exact_finite(H, v)) * float(a_norm_exact_finite(H, w))
                assert lhs <= rhs + 1e-9

    def test_product_dual_dispatch(self, s3_x_z4):
        v = FiniteFunction.point(s3_x_z4.identity)
        assert a_norm_exact_finite(s3_x_z4, v) == 1
        # a product label contracts each factor's row: the two-dimensional row of S3 with chi1
        assert a_norm_exact_finite(s3_x_z4, FiniteFunction.point((2, 1))) == Fraction(4, 3)

    def test_labels_outside_the_table_are_usage_errors(self, su2, s3, s3_x_z4):
        with pytest.raises(UsageError):
            a_norm_exact_finite(s3, FiniteFunction.point(3))
        with pytest.raises(UsageError):
            a_norm_exact_finite(s3_x_z4, FiniteFunction.point((3, 0)))
        with pytest.raises(UsageError):
            a_norm_exact_finite(su2, FiniteFunction.point(0))


def _random_su2_function(seed):
    """A function of degree <= 200 on su2-hat with random rational values."""
    rng = random.Random(seed)
    top = rng.randint(0, 200)
    labels = rng.sample(range(top), rng.randint(0, top)) + [top]
    return FiniteFunction({n: Fraction(rng.randint(-1000, 1000), 997) or 1 for n in labels})


class TestANormSu2:
    def test_identity_coefficient(self):
        assert a_norm_su2(FiniteFunction.point(0)) == pytest.approx(1.0, abs=1e-9)

    def test_spin_half_closed_form(self):
        value = a_norm_su2(FiniteFunction.point(1))
        assert value == pytest.approx(16 / (3 * math.pi), abs=1e-6)

    def test_matches_gauss_legendre_64(self, su2):
        # an order-64 Gauss-Legendre rule on the same breakpoints, with the
        # integrand in sine form: U_n(cos theta) sin^2 theta = sin((n+1) theta) sin theta
        cases = [FiniteFunction.point(1), FiniteFunction({0: 1, 2: half}),
                 FiniteFunction({1: 1, 4: Fraction(-2, 3), 7: Fraction(1, 5)}),
                 bump(su2, [1, 3, 4], range(80)).function]
        for v in cases:
            top = max(v.support)
            coeffs = np.zeros(top + 1)
            for n, value in v.items():
                coeffs[n] = float(value) * (n + 1)
            breaks = np.unique(np.concatenate(
                [[0.0, math.pi], su2num.u_series_roots_theta(coeffs)]))
            freqs = np.arange(1, top + 2)

            def integrand(theta):
                series = np.sin(np.outer(theta, freqs)) @ coeffs
                return (2.0 / math.pi) * np.abs(series * np.sin(theta))

            reference = su2num.piecewise_gauss(integrand, breaks, 64)
            assert a_norm_su2(v) == pytest.approx(reference, abs=1e-12), top

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_antiderivative_oracle(self, seed):
        # random functions of degree <= 200; the oracle finds its own sign
        # changes, so a zero the Chebyshev root finder missed would show
        v = _random_su2_function(seed)
        reference = a_norm_antiderivative(v)
        for tolerance in (1e-9, 1e-7):
            value = a_norm_su2(v, QuadratureConfig(tolerance=tolerance))
            residual = fourier.a_norm_residual(value)
            assert 0 < residual <= tolerance
            # the residual bounds the quadrature error; 1e-12 covers rounding
            assert abs(value - reference) <= residual + 1e-12 * reference, top

    def test_value_carries_its_residual(self):
        value = a_norm_su2(FiniteFunction({1: 1, 4: Fraction(-2, 3)}))
        assert isinstance(value, float)
        assert 0 < fourier.a_norm_residual(value) <= 1e-9
        assert json.dumps(value) == repr(float(value))
        assert f"{value:.17g}" == f"{float(value):.17g}"
        copied = pickle.loads(pickle.dumps(value))
        assert copied == value and copied.residual == value.residual
        assert fourier.a_norm_residual(Fraction(4, 3)) == 0.0
        assert fourier.a_norm_residual(1.25) == 0.0

    def test_absolute_homogeneity(self):
        v = FiniteFunction({1: 1, 4: Fraction(-2, 3)})
        assert a_norm_su2(v.scale(-3)) == pytest.approx(3 * a_norm_su2(v), rel=1e-9)

    def test_zero_function(self):
        assert a_norm_su2(FiniteFunction({})) == 0.0

    def test_unreachable_tolerance_raises(self):
        cfg = QuadratureConfig(tolerance=1e-30)
        with pytest.raises(NumericError) as info:
            a_norm_su2(FiniteFunction.point(1), cfg)
        assert info.value.residual is not None

    def test_bad_labels(self):
        with pytest.raises(UsageError):
            a_norm_su2(FiniteFunction({-2: 1}))

    def test_plateau_bound_cross_check(self, su2):
        # a plateau built from a ratio certificate respects its norm cap
        u = bump(su2, range(2), range(3))
        cap = math.sqrt(float(u.ratio))
        assert float(u.a_norm()) <= cap + 1e-6



class TestRefineChunks:
    """su2num's per-chunk ladder on a fake quadrature that reads a table of residuals."""

    @staticmethod
    def _ladder(residuals_by_chunk):
        """A quadrature whose chunk i has residual residuals_by_chunk[i][rung] and value i + 1."""
        calls = []

        def quadrature(order, split, chunk):
            index = int(chunk[0]) // su2num.CHUNK_PIECES
            rung = su2num.QUADRATURE_LADDER.index((order, split))
            calls.append((index, rung, len(chunk)))
            return float(index + 1), residuals_by_chunk[index][rung]

        return quadrature, calls

    def test_chunks_are_runs_of_chunk_pieces_that_share_their_ends(self):
        breaks = np.arange(2 * su2num.CHUNK_PIECES + 12, dtype=float)
        quadrature, calls = self._ladder([[0.0] * 5] * 3)
        value, residual = su2num._refine_chunks(quadrature, su2num._array_chunks(breaks), 1e-9)
        assert su2num.CHUNK_PIECES == 9_362
        # every chunk once on the first rung; the value is the sum of the chunk values
        assert calls == [(0, 0, su2num.CHUNK_PIECES + 1), (1, 0, su2num.CHUNK_PIECES + 1),
                         (2, 0, 12)]
        assert value == 6.0 and residual == 0.0

    def test_the_largest_residual_climbs_first(self):
        breaks = np.arange(3 * su2num.CHUNK_PIECES + 1, dtype=float)
        quadrature, calls = self._ladder([[0.2, 0.1, 0, 0, 0], [0.5, 0.05, 0, 0, 0],
                                          [0.4, 0.3, 0.25, 0, 0]])
        _, residual = su2num._refine_chunks(quadrature, su2num._array_chunks(breaks), 0.5)
        # 1.1 -> chunk 1 climbs (0.65) -> chunk 2 climbs (0.55) -> chunk 2 again (0.5)
        assert [(i, rung) for i, rung, _ in calls[3:]] == [(1, 1), (2, 1), (2, 2)]
        assert residual == pytest.approx(0.5)

    def test_a_chunk_on_the_last_rung_leaves_the_climb_to_the_others(self):
        # chunk 0 ends on the 8x split at 0.6 of the tolerance, chunk 1 sits
        # on the first rung at 0.5: chunk 1 climbs, and the sum, 0.7, is accepted
        tolerance = 1e-6
        breaks = np.arange(2 * su2num.CHUNK_PIECES + 1, dtype=float)
        table = [[10 * tolerance, 5 * tolerance, 2 * tolerance, tolerance, 0.6 * tolerance],
                 [0.5 * tolerance, 0.1 * tolerance, 0, 0, 0]]
        quadrature, calls = self._ladder(table)
        value, residual = su2num._refine_chunks(quadrature, su2num._array_chunks(breaks), tolerance)
        assert [(i, rung) for i, rung, _ in calls] == [
            (0, 0), (1, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 1)]
        assert value == 3.0 and residual == pytest.approx(0.7 * tolerance)

    def test_raises_only_once_every_chunk_is_on_the_last_rung(self):
        breaks = np.arange(2 * su2num.CHUNK_PIECES + 1, dtype=float)
        quadrature, calls = self._ladder([[1.0] * 5, [0.5] * 5])
        with pytest.raises(NumericError) as info:
            su2num._refine_chunks(quadrature, su2num._array_chunks(breaks), 0.1)
        assert info.value.residual == 1.5
        assert sorted((i, rung) for i, rung, _ in calls) == [
            (i, rung) for i in range(2) for rung in range(5)]


class TestFirstRungEnds:
    """The first rung leaves out the ends of every piece, which must be zeros."""

    @staticmethod
    def _dropped_end_share(monkeypatch, a_norm_call):
        """The end-node mass the first rung leaves out, over the value it finds.

        The mass is sum w_end (h_i / 2) (|f(r_i)| + |f(r_{i+1})|) over every
        piece of every first-rung pass, w_end the Kronrod 9 end weight: what
        the end nodes would add to the Kronrod value.  The value is the sum
        of those passes' values, so the share is free of the A-norm's
        scaling.  0 and pi are zeros in closed form (S_M(0) = S_M(pi) = 0,
        and sin^2 vanishes there), where the interval formula reads 0/0 or
        rounds, so only the breaks inside (0, pi) are evaluated.
        """
        passes = []
        original = su2num.gauss_kronrod

        def recording(fn, breaks, split, order=21):
            value, residual = original(fn, breaks, split, order)
            if order == su2num.QUADRATURE_LADDER[0][0]:
                passes.append((fn, breaks, value))
            return value, residual

        monkeypatch.setattr(su2num, "gauss_kronrod", recording)
        a_norm_call()
        assert passes
        w_end = 1.0 - 0.5 * su2num._LOBATTO_KRONROD9[1].sum()
        mass = total = 0.0
        for fn, breaks, value in passes:
            inside = (breaks > 0) & (breaks < math.pi)
            r = breaks[inside]
            ends = np.zeros(len(breaks))
            ends[inside] = np.abs(fn(r[:, None], np.zeros((r.size, 1)))[:, 0])
            mass += w_end * float(0.5 * np.diff(breaks) @ (ends[:-1] + ends[1:]))
            total += value
        return mass / total

    @pytest.mark.parametrize("k2,m2", [(0, 1), (2, 29), (60, 914), (1888, 28_779),
                                       (59_446, 906_157)])
    def test_interval_stages(self, su2, monkeypatch, k2, m2):
        # stages 1-5 of the D = 1.1 witness, at the benchmark's tolerance
        plateau = Su2IntervalBump(su2, k2, m2)
        share = self._dropped_end_share(
            monkeypatch, lambda: plateau.a_norm(QuadratureConfig(tolerance=1e-7)))
        assert share <= 1e-12

    @pytest.mark.parametrize("K", [[0, 1, 4], [0, 3, 4], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    def test_generic_bumps(self, su2, monkeypatch, K):
        # the five plateaus of the generic su2-hat benchmark, V = {0..79}
        u = bump(su2, K, range(80))
        share = self._dropped_end_share(
            monkeypatch, lambda: u.a_norm(QuadratureConfig(tolerance=1e-8)))
        assert share <= 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_random_functions(self, monkeypatch, seed):
        # the functions of TestANormSu2.test_matches_the_antiderivative_oracle
        v = _random_su2_function(seed)
        share = self._dropped_end_share(monkeypatch, lambda: a_norm_su2(v))
        assert share <= 1e-12


class TestBump:
    def test_identity_plateau(self, su2):
        u = bump(su2, [0], [0])
        assert u.function == FiniteFunction.point(0)
        assert u.ratio == 1

    def test_su2_example(self, su2):
        u = bump(su2, [1], [0, 1, 2])
        assert u.value(1) == 1
        assert set(u.support) <= set(range(6))  # spins up to 5/2
        assert u.ratio == Fraction(30, 14)
        assert u.a_norm_bound == pytest.approx(math.sqrt(30 / 14))

    def test_s3_full_cover(self, s3):
        u = bump(s3, [s3.identity], list(s3.universe))
        assert all(u.value(x) == 1 for x in s3.universe)
        assert u.ratio == 1
        assert float(u.a_norm()) == pytest.approx(1.0)

    def test_bound_squared_is_ratio(self, su2, s3):
        rng = random.Random(3)
        for H, n_max in ((su2, 5), (s3, 2)):
            for _ in range(10):
                K = {rng.randint(0, n_max)}
                V = {rng.randint(0, n_max) for _ in range(rng.randint(1, 3))}
                u = bump(H, K, V)
                assert u.ratio == leptin_ratio(H, K, V)

    def test_empty_rejected(self, su2):
        with pytest.raises(UsageError):
            bump(su2, [], [0])
        with pytest.raises(UsageError):
            bump(su2, [0], [])

    def test_absorption(self, s3):
        small = bump(s3, [s3.identity], [s3.identity, 1])
        big = bump(s3, list(s3.universe), list(s3.universe))
        assert absorption_witness(small, big) is None
        assert absorption_witness(big, small) is not None


@st.composite
def label_sets(draw):
    k = draw(st.sets(st.integers(0, 4), min_size=1, max_size=2))
    v = draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))
    return k, v


class TestBumpProperties:
    @given(kv=label_sets())
    @settings(max_examples=30, deadline=None)
    def test_su2_plateau_laws(self, kv):
        K, V = kv
        u = bump(_SU2, K, V)
        assert all(value >= 0 for _, value in u.function.items())
        assert all(u.value(x) == 1 for x in K)
        tilde = frozenset(_SU2.involution(x) for x in V)
        allowed = support_product(_SU2, support_product(_SU2, K, V), tilde)
        assert set(u.support) <= set(allowed)
        assert u.ratio == leptin_ratio(_SU2, K, V)


@st.composite
def factored_plateau_sets(draw):
    """K in {0..6} and V in {0..40}, each a nonempty set or an interval {0..M-1}."""
    def labels(top):
        if draw(st.booleans()):
            return range(draw(st.integers(1, top + 1)))
        return draw(st.sets(st.integers(0, top), min_size=1, max_size=12))
    return labels(6), labels(40)


class TestFactoredSeriesZeros:
    """A su2-hat plateau's A-norm breaks: the zeros of F_{K*V} and F_V."""

    @given(kv=factored_plateau_sets())
    @settings(max_examples=40, deadline=None)
    @example(kv=(range(5), range(80)))
    @example(kv=([0], [3]))
    def test_factor_zeros_are_series_zeros(self, kv):
        u = bump(_SU2, *kv)
        zeros = u._su2_series_zeros()
        # the series times sin theta, in sine form: sum_n c_n sin((n+1) theta)
        c = su2_u_coefficients(u.function)
        n1 = np.arange(1, c.size + 1)
        assert np.all(np.abs(np.sin(np.outer(zeros, n1)) @ c) <= 1e-9 * np.sum(np.abs(c) * n1))
        # and every zero of the product's companion matrix is one of them
        for z in su2num.u_series_roots_theta(c):
            assert np.min(np.abs(zeros - z)) <= 1e-6
        for A in (u.grown, u.V):
            if len(A) == max(A) + 1:
                want = su2num.kernel_roots(max(A) + 1)
            else:
                want = su2num.u_series_roots_theta(su2num.indicator_series(A))
            assert su2num.indicator_series_zeros(A).tobytes() == want.tobytes()

    @given(kv=factored_plateau_sets())
    @settings(max_examples=25, deadline=None)
    @example(kv=(range(7), range(25)))
    @example(kv=([0, 1, 2, 3], [2]))  # s is exactly 0 at a point of the oracle's grid
    def test_factored_a_norm_matches_the_product_zeros_and_the_oracle(self, kv):
        u = bump(_SU2, *kv)
        tolerance = 1e-9
        config = QuadratureConfig(tolerance=tolerance)
        factored, product = u.a_norm(config), a_norm_su2(u.function, config)
        r_factored, r_product = (fourier.a_norm_residual(a) for a in (factored, product))
        assert 0 < r_factored <= tolerance
        assert abs(factored - product) <= tolerance + r_factored + r_product
        # the oracle finds sign changes on a grid, and a zero of each factor
        # can fall in one cell (4.6e-4 apart at K = {0..6}, V = {0..24}): on
        # 64 points a degree it was off by up to 3e-7, on 1024 by 1e-13 over
        # every interval pair here and 150 random sets
        reference = a_norm_su2_antiderivative({n: float(x) for n, x in u.function.items()},
                                              grid_factor=1024)
        assert abs(factored - reference) <= tolerance + r_factored

    @given(kv=factored_plateau_sets(), where=st.integers(0, 1 << 20), by=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_one_corrupted_value_fails_the_factorization(self, kv, where, by):
        u = bump(_SU2, *kv)
        # any label of the series, or the one just past its degree
        n = where % (max(u.support) + 2)
        values = dict(u.function.items())
        values[n] = values.get(n, 0) + Fraction(by, 7)
        broken = BumpFunction(_SU2, u.K, u.V, u.ratio, FiniteFunction(values), u.grown)
        with pytest.raises(InternalInvariantError, match="U-series product"):
            broken.a_norm()

    def test_degree_budget_comes_before_any_zero(self, monkeypatch):
        u = bump(_SU2, [0, 2], range(3))
        monkeypatch.setattr(duals, "MAX_U_SERIES_DEGREE", max(u.support) - 1)
        monkeypatch.setattr(su2num, "indicator_series_zeros", None)
        with pytest.raises(CapacityError):
            u.a_norm()

    def test_largest_plateau_in_budget_matches_the_interval_integral(self):
        # degree 1000: the product's companion zeros are off by up to 3.5e-8 rad
        u = bump(_SU2, range(3), range(500))
        value = u.a_norm(QuadratureConfig(tolerance=1e-9))
        reference, residual = su2num.interval_product_l1(502, 500, 1e-9)
        assert abs(value - reference) <= fourier.a_norm_residual(value) + residual


class TestIntervalBump:
    @pytest.mark.parametrize("k2,m2", [(0, 0), (0, 2), (1, 1), (2, 4), (3, 7)])
    def test_matches_generic_construction(self, su2, k2, m2):
        fast = Su2IntervalBump(su2, k2, m2)
        slow = bump(su2, range(k2 + 1), range(m2 + 1))
        assert fast.as_finite_function() == slow.function
        assert fast.ratio == slow.ratio
        assert fast.segal_power_sum(1) == slow.segal_power_sum(1)
        assert fast.segal_power_sum(2) == slow.segal_power_sum(2)
        with pytest.raises(UsageError, match="p = 1 or 2"):
            fast.segal_power_sum(3)

    @pytest.mark.parametrize("k2,m2", [(0, 1), (1, 2), (2, 5)])
    def test_a_norm_matches_series_quadrature(self, su2, k2, m2):
        fast = Su2IntervalBump(su2, k2, m2)
        generic = a_norm_su2(fast.as_finite_function())
        assert fast.a_norm() == pytest.approx(generic, abs=1e-8)

    def test_segal_norm_float_paths(self, su2):
        b = Su2IntervalBump(su2, 1, 3)
        assert b.segal_norm(2) == pytest.approx(math.sqrt(float(b.segal_power_sum(2))))
        assert b.segal_norm(1) == pytest.approx(float(b.segal_power_sum(1)))
        mid = b.segal_norm(1.5)
        assert float(b.segal_norm(2)) <= mid <= float(b.segal_norm(1))

    def test_absorption_structure(self, su2):
        inner = Su2IntervalBump(su2, 0, 1)   # support up to n = 2
        outer = Su2IntervalBump(su2, 2, 3)   # plateau covers n <= 2
        assert absorption_witness(inner, outer) is None
        assert absorption_witness(outer, inner) is not None

    @given(labels=st.lists(st.integers(0, 40), max_size=30),
           km=st.sampled_from([(0, 0), (0, 2), (1, 1), (2, 4), (3, 7)]))
    @settings(max_examples=60, deadline=None)
    def test_first_not_one_matches_value_scan(self, labels, km):
        # the integer comparison agrees with the base scan over value(),
        # also for labels past the support (k2 + 2 m2 <= 17 < 40)
        b = Su2IntervalBump(_SU2, *km)
        assert b.first_not_one(labels) == Plateau.first_not_one(b, labels)
        assert b.first_not_one(list(b.K) + labels) == Plateau.first_not_one(b, list(b.K) + labels)

    def test_every_instance_is_proven(self, su2, monkeypatch):
        with pytest.raises(UsageError, match="nonnegative"):
            Su2IntervalBump(su2, -1, 2)
        closed_form = su2num.plateau_numerator
        monkeypatch.setattr(su2num, "plateau_numerator",
                            lambda k2, m2, w: closed_form(k2, m2, w) + (w == k2 + 2))
        with pytest.raises(InternalInvariantError, match="breaks the recurrence"):
            Su2IntervalBump(su2, 2, 5)

    def test_plateau_extends_to_interval(self, su2):
        # the plateau of an interval pair covers the whole lower interval
        b = Su2IntervalBump(su2, 2, 5)
        assert b.is_one_on(range(3))


class TestIntervalSupportBudget:
    @pytest.mark.parametrize("work", [
        lambda b: b.a_norm(),
        lambda b: b.segal_norm(Fraction(3, 2)),
        lambda b: b.as_finite_function(),
    ], ids=["a_norm", "segal_norm_3/2", "as_finite_function"])
    def test_refused_before_allocating(self, su2, monkeypatch, work):
        monkeypatch.setattr(fourier, "MAX_INTERVAL_SUPPORT", 100)
        b = Su2IntervalBump(su2, 2, 60)  # support of 123 labels
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="123 labels"):
                work(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_support_at_the_budget_is_admitted(self, su2, monkeypatch):
        monkeypatch.setattr(fourier, "MAX_INTERVAL_SUPPORT", 123)
        b = Su2IntervalBump(su2, 2, 60)
        assert len(b.as_finite_function().support) == 123
        assert b.segal_norm(Fraction(3, 2)) > 0

    @pytest.mark.parametrize("work", [
        lambda b: b.a_norm(),
        lambda b: b.segal_norm(Fraction(3, 2)),
        lambda b: b.as_finite_function(),
    ], ids=["a_norm", "segal_norm_3/2", "as_finite_function"])
    def test_support_past_ssize_is_refused(self, su2, work):
        # 2^65 + 2 labels: a C ssize_t cannot hold len() of this support
        b = Su2IntervalBump(su2, 1, 2 ** 64)
        with pytest.raises(CapacityError, match="36893488147419103234 labels"):
            work(b)

    def test_one_budget_for_stage_and_plateau(self, su2, monkeypatch):
        # the witness stage asks its plateau, so one patched budget refuses both
        monkeypatch.setattr(fourier, "MAX_INTERVAL_SUPPORT", 100)
        with pytest.raises(CapacityError, match="stage 4: the plateau support has 655 labels, "
                                                "more than the 100 an interval witness stage"):
            build_witness(su2, [0], Fraction(3, 2), 4, "interval")


def _oracle_power_sum(c, h_v, p):
    """sum_w w^(2-p) c_w^p / h(V)^p over the recurrence's coefficient list, p <= 2."""
    return Fraction(sum(w ** (2 - p) * cw ** p for w, cw in enumerate(c)), h_v ** p)


def _oracle_segal_norm(c, h_v, p):
    """The float p-norm over the coefficient list, summed over every label."""
    c = np.array([float(x) for x in c])
    w = np.arange(len(c), dtype=float)
    w[0] = 1.0  # c[0] = 0
    return float(np.sum(w * w * (c / (float(h_v) * w)) ** p) ** (1.0 / p))


@pytest.fixture(scope="module")
def default_chain():
    """The terms of the D = 1.1, N = 5 interval witness, with their recurrence lists."""
    w = build_witness(_SU2, [0], "11/10", 5, search="interval")
    return [(t, su2num.linearized_interval_product(t.k2 + t.m2 + 1, t.m2 + 1))
            for t in w.terms]


class TestIntervalClosedForm:
    def test_default_chain_matches_recurrence(self, default_chain):
        assert [(t.k2, t.m2) for t, _ in default_chain] == [
            (0, 1), (2, 29), (60, 914), (1888, 28779), (59446, 906157)]
        for term, c in default_chain:
            assert len(c) == term.k2 + 2 * term.m2 + 2
            assert [term.numerator(w) for w in range(len(c) + 3)] == c + [0, 0, 0]

    def test_default_chain_power_sums(self, default_chain):
        for term, c in default_chain:
            for p in (1, 2):
                assert term.segal_power_sum(p) == _oracle_power_sum(c, term._h_v, p)

    def test_default_chain_float_norm(self, default_chain):
        for term, c in default_chain:
            expected = _oracle_segal_norm(c, term._h_v, 1.5)
            assert term.segal_norm(1.5) == pytest.approx(expected, rel=1e-12, abs=0)

    @given(k2=st.integers(0, 30), m2=st.integers(0, 30))
    @example(k2=0, m2=0)
    @example(k2=0, m2=17)
    @example(k2=17, m2=0)
    @example(k2=25, m2=3)
    @settings(max_examples=80, deadline=None)
    def test_small_pairs_match_recurrence(self, k2, m2):
        b = Su2IntervalBump(_SU2, k2, m2)
        c = su2num.linearized_interval_product(k2 + m2 + 1, m2 + 1)
        assert [b.numerator(w) for w in range(len(c) + 3)] == c + [0, 0, 0]
        for p in (1, 2):
            assert b.segal_power_sum(p) == _oracle_power_sum(c, b._h_v, p)
        assert b.segal_norm(1.5) == pytest.approx(
            _oracle_segal_norm(c, b._h_v, 1.5), rel=1e-12, abs=0)

    def test_stage_seven_sizes_take_no_time(self):
        # (58935666, 898378910): 1.86e9 labels, far past any list
        start = time.perf_counter()
        b = Su2IntervalBump(_SU2, 58_935_666, 898_378_910)
        power = b.segal_power_sum(2)
        assert time.perf_counter() - start < 1.0
        # h(K) <= sum h u^2 <= sum h u = h(K*V), since 0 <= u <= 1
        assert b.segal_power_sum(1) == su2num.sum_squares(b.k2 + b.m2 + 1)
        assert su2num.sum_squares(b.k2 + 1) < power < b.segal_power_sum(1)
        assert b.value(b.k2) == 1 and 0 < b.value(b.k2 + 1) < 1
        assert b.value(b.k2 + 2 * b.m2) > 0 and b.value(b.k2 + 2 * b.m2 + 1) == 0

    def test_power_sums_past_ssize(self):
        # the parity classes are counted by integer arithmetic, not len(range)
        b = Su2IntervalBump(_SU2, 1, 2 ** 64)
        assert b.segal_power_sum(1) == su2num.sum_squares(b.k2 + b.m2 + 1)
        assert su2num.sum_squares(b.k2 + 1) < b.segal_power_sum(2) < b.segal_power_sum(1)

    @pytest.mark.parametrize("k2,m2", [(0, 0), (0, 5), (5, 0), (3, 12), (12, 3), (60, 914)])
    def test_recurrence_check_rejects_a_wrong_closed_form(self, k2, m2):
        # the check proves a numerator that is piecewise polynomial of the
        # stated degrees; it must reject such a one that is wrong anywhere
        closed_form = Su2IntervalBump(_SU2, k2, m2).numerator
        su2num.check_plateau_recurrence(k2, m2, closed_form)
        top = k2 + 2 * m2 + 2
        wrong = [lambda w, e=e: closed_form(w) + (k2 + 1 < w <= top) * (w - k2 - 1) ** e
                 for e in range(5)]
        wrong.append(lambda w: closed_form(w) + (0 < w <= k2 + 1))
        # single dents where the check evaluates the numerator
        wrong += [lambda w, dent=dent: closed_form(w) + (w == dent)
                  for dent in (0, 1, k2 + 1, k2 + 2, k2 + 3) if dent <= top]
        for numerator in wrong:
            with pytest.raises(InternalInvariantError):
                su2num.check_plateau_recurrence(k2, m2, numerator)
