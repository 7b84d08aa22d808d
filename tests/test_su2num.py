"""Kernel zeros and the Gauss-Kronrod interval quadrature of su2num."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypergroups
from hypergroups import InternalInvariantError, NumericError, QuadratureConfig
from hypergroups import su2num
from hypergroups.fourier import Su2IntervalBump
from oracles import (
    interval_product_breakpoints,
    interval_product_l1_antiderivative,
    interval_product_l1_whole,
    kernel_roots_every_sweep,
    kernel_sum,
)

# brackets per block of kernel_roots
B = su2num._ROOT_BLOCK


def bisection_kernel_roots(M, grid_factor=4, iterations=40):
    """Reference zeros of S_M: sign changes on a uniform grid, then bisection."""
    if M <= 1:
        return np.empty(0)
    count = grid_factor * (M + 1) + 1
    theta = np.linspace(0.0, math.pi, count)[1:-1]
    values = kernel_sum(M, theta)
    sign = np.sign(values)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    lo = theta[flips].copy()
    hi = theta[flips + 1].copy()
    lo_sign = sign[flips]
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        same = np.sign(kernel_sum(M, mid)) == lo_sign
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    roots = 0.5 * (lo + hi)
    exact_hits = theta[np.nonzero(values == 0.0)[0]]
    if exact_hits.size:
        roots = np.sort(np.concatenate([roots, exact_hits]))
    return roots


def legendre16_interval_l1(P, Q):
    """The order-16 piecewise Gauss-Legendre value on bisection breakpoints."""
    breaks = np.unique(np.concatenate(
        [[0.0, math.pi], bisection_kernel_roots(P), bisection_kernel_roots(Q)]))

    def integrand(theta):
        return np.abs(kernel_sum(P, theta) * kernel_sum(Q, theta))

    return (2.0 / math.pi) * su2num.piecewise_gauss(integrand, breaks, 16)


class TestKernelRoots:
    def test_small_kernels_have_no_interior_zero(self):
        assert su2num.kernel_roots(0).size == 0
        assert su2num.kernel_roots(1).size == 0

    def test_matches_bisection_up_to_300(self):
        for M in range(2, 301):
            new = su2num.kernel_roots(M)
            old = bisection_kernel_roots(M)
            assert new.shape == old.shape == (M - 1,)
            assert np.max(np.abs(new - old)) <= 1e-12, M

    @pytest.mark.parametrize("M", [915, 975, 28_780, 30_668])
    def test_matches_bisection_at_witness_sizes(self, M):
        new = su2num.kernel_roots(M)
        old = bisection_kernel_roots(M)
        assert new.shape == old.shape
        assert np.max(np.abs(new - old)) <= 1e-12

    @pytest.mark.parametrize("M", [2, 7, 975, 965_604])
    def test_one_root_per_bracket(self, M):
        roots = su2num.kernel_roots(M)
        a = M + 0.5
        k = np.arange(1, M)
        slack = 4 * np.spacing(math.pi)
        assert roots.size == M - 1
        assert np.all(np.diff(roots) > 0)
        assert np.all(roots >= k * math.pi / a - slack)
        assert np.all(roots <= (k + 0.5) * math.pi / a + slack)

    @pytest.mark.parametrize("M", [2, 3, 7, B - 1, B, B + 1, B + 2, 2 * B + 1, 28_780, 30_668,
                                   906_158, 965_604])
    def test_equals_sweeping_every_root_bit_for_bit(self, M):
        # per-root stopping and the blocks change no bit: M = B + 1 fills
        # one block, B + 2 leaves one root for a second, 2B + 1 fills two
        assert su2num.kernel_roots(M).tobytes() == kernel_roots_every_sweep(M).tobytes()

    def test_a_root_still_moving_after_the_last_sweep_raises(self, monkeypatch):
        # at M = 965 604, 265 roots still move after the first sweep
        monkeypatch.setattr(su2num, "_NEWTON_SWEEPS", 1)
        with pytest.raises(InternalInvariantError, match=r"kernel_roots\(965604\): Newton did not"):
            su2num.kernel_roots(965_604)

    @pytest.mark.parametrize("M", [2, 3, 7, 915, 975, B - 1, B, B + 1, B + 2, 2 * B + 1, 28_780,
                                   30_668, 906_158, 965_604])
    def test_a_bracket_range_holds_the_bits_of_the_whole_array(self, M):
        # ranges that start off the block grid and cross the block seams
        whole = su2num.kernel_roots(M)
        ranges = [(1, M), (1, 2), (M - 1, M), (M, M), (2, M), (B - 3, B + 5), (B, 2 * B + 2),
                  (B + 2, 3 * B), (M // 3, M - 7), (M - B - 9, M - 1)]
        for lo, hi in ranges:
            if 1 <= lo <= hi <= M:
                assert su2num.kernel_roots(M, lo, hi).tobytes() == whole[lo - 1:hi - 1].tobytes()

    @pytest.mark.parametrize("lo,hi", [(0, 3), (2, 1), (1, 9), (5, 10)])
    def test_a_range_outside_the_brackets_is_refused(self, lo, hi):
        with pytest.raises(ValueError, match=r"kernel_roots\(8\): no bracket range"):
            su2num.kernel_roots(8, lo, hi)

    def test_kernel_vanishes_at_roots(self):
        M = 975
        roots = su2num.kernel_roots(M)
        # |S_M'| <= sum k^2 < M^3, so a root off by a few ulps leaves |S_M| < 1e-14 M^3
        assert np.max(np.abs(kernel_sum(M, roots))) <= 1e-14 * M**3


class TestKronrodRule:
    def test_weights_sum_to_two(self):
        _, kronrod, gauss = su2num._KRONROD21
        assert math.isclose(kronrod.sum(), 2.0, abs_tol=1e-15)
        assert math.isclose(gauss.sum(), 2.0, abs_tol=1e-15)

    def test_polynomial_exactness(self):
        nodes, kronrod, gauss = su2num._KRONROD21
        for d in range(32):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            assert abs(kronrod @ nodes**d - exact) <= 1e-14, d
            if d <= 19:
                assert abs(gauss @ nodes**d - exact) <= 1e-14, d

    def test_gauss_part_is_legendre_10(self):
        nodes, _, gauss = su2num._KRONROD21
        x, w = np.polynomial.legendre.leggauss(10)
        used = gauss > 0
        assert used.sum() == 10
        np.testing.assert_allclose(nodes[used], x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(gauss[used], w, rtol=0, atol=1e-15)


class TestKronrod9Rule:
    """The Lobatto 5 / Kronrod 9 pair without its end nodes, the first rung."""

    @staticmethod
    def _moment(d):
        """The integral of (1 - x^2) x^d over [-1, 1]."""
        return 0.0 if d % 2 else 2.0 / (d + 1) - 2.0 / (d + 3)

    def test_weights_sum_to_two(self):
        # with the end weights left out, 139/4536 for Kronrod and 1/10 for
        # Lobatto, each rule's weights sum to two
        _, kronrod, lobatto = su2num._LOBATTO_KRONROD9
        assert math.isclose(kronrod.sum() + 2 * 139 / 4536, 2.0, abs_tol=1e-15)
        assert math.isclose(lobatto.sum() + 2 * 1 / 10, 2.0, abs_tol=1e-15)

    def test_polynomial_exactness(self):
        nodes, kronrod, lobatto = su2num._LOBATTO_KRONROD9
        for d in range(12):
            values = (1 - nodes**2) * nodes**d
            assert abs(kronrod @ values - self._moment(d)) <= 1e-15, d
            if d <= 5:
                assert abs(lobatto @ values - self._moment(d)) <= 1e-15, d
        # neither rule is exact one degree past its own
        assert abs(kronrod @ ((1 - nodes**2) * nodes**12) - self._moment(12)) > 1e-6
        assert abs(lobatto @ ((1 - nodes**2) * nodes**6) - self._moment(6)) > 1e-3

    def test_nodes_and_lobatto_weights_match_the_closed_forms(self):
        nodes, kronrod, lobatto = su2num._LOBATTO_KRONROD9
        root = math.sqrt(5.0 / 13.0)
        outer, inner = math.sqrt((5 + 6 * root) / 11), math.sqrt((5 - 6 * root) / 11)
        lobatto_node = math.sqrt(3.0 / 7.0)
        expected = [-outer, -lobatto_node, -inner, 0.0, inner, lobatto_node, outer]
        np.testing.assert_allclose(nodes, expected, rtol=0, atol=1e-15)
        # the Kronrod nodes are the zeros of x^4 - (10/11) x^2 + 145/1573
        quartic = nodes[[0, 2]] ** 4 - (10 / 11) * nodes[[0, 2]] ** 2 + 145 / 1573
        np.testing.assert_allclose(quartic, 0.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(lobatto, [0, 49 / 90, 0, 32 / 45, 0, 49 / 90, 0],
                                   rtol=0, atol=1e-15)
        assert np.all(kronrod > 0)


def _pointwise(f):
    """The gauss_kronrod integrand of a function of the angle alone."""
    return lambda left, offset: f(left + offset)


def chunk_pass(P, Q, breaks, split, order=21):
    """One pass of a ladder rung over ``breaks``, before the division by S(Q).

    (2/pi) * integral of |S_P S_Q|, with residual, as
    :func:`su2num.interval_product_l1` integrates each chunk: the fused
    4 |S_P S_Q| on the rule of ``order`` with ``split`` parts a piece, both
    sums scaled by 1/(2 pi).
    """
    a_p, a_q = P + 0.5, Q + 0.5
    total, residual = su2num.gauss_kronrod(
        lambda left, offset: su2num._abs_kernel_product(a_p, a_q, left, offset),
        breaks, split, order)
    scale = 0.5 / math.pi
    return scale * total, scale * residual


class TestGaussKronrod:
    def test_chunked_pieces_sum_to_the_integral(self):
        breaks = np.linspace(0.0, math.pi, 10_001)  # more pieces than one chunk holds
        for split in (1, 8):
            value, residual = su2num.gauss_kronrod(_pointwise(np.sin), breaks, split)
            assert value == pytest.approx(2.0, abs=1e-13)
            assert 0 <= residual <= 1e-13

    def test_kink_at_a_breakpoint_is_integrated_exactly(self):
        value, residual = su2num.gauss_kronrod(_pointwise(np.abs), np.array([-1.0, 0.0, 2.0]), 1)
        assert value == pytest.approx(2.5, abs=1e-15)
        assert residual <= 1e-15

    def test_kink_inside_a_piece_shows_in_the_residual(self):
        breaks = np.array([-1.0, 2.0])
        residuals = [su2num.gauss_kronrod(_pointwise(np.abs), breaks, split)[1]
                     for split in (1, 2)]
        assert residuals[0] > 1e-4
        # with two parts the kink at 0 sits inside the first part only
        assert 0 < residuals[1] < residuals[0]

    @pytest.mark.parametrize("order,split", [(7, 1), (21, 1), (21, 8)])
    def test_batches_stay_within_the_chunk_nodes(self, order, split):
        # 20 000 pieces of width h = 2^-13, more than one batch of either
        # rule holds.  The integrand |theta| 4 s (h - s) / h^2, s the offset
        # in the piece, vanishes at every break, as the first rung needs; its
        # kink at 0 lies 7h/16 into piece 6554, inside a part of every split
        h = 2.0 ** -13
        breaks = (16 * np.arange(20_001) - 104_871) * (h / 16)
        batches = []

        def counted(left, offset):
            batches.append(offset.size)
            return np.abs(left + offset) * offset * (h - offset) * (4 / (h * h))

        value, residual = su2num.gauss_kronrod(counted, breaks, split, order)
        assert su2num._CHUNK_NODES == 65_536
        assert len(batches) == -(-20_000 // (su2num._CHUNK_NODES // (order * split)))
        assert max(batches) <= su2num._CHUNK_NODES
        assert sum(batches) == 20_000 * order * split
        assert residual > 1e-13
        # a piece with midpoint m holds (2h/3) |m|, and the kink's piece,
        # with its kink c = 7h/16 from its left end, 2 c^3 (2h - c) / (3 h^2)
        # more; the midpoints are integers in units of h/16
        mids = 16 * np.arange(20_000) - 104_863
        c = 7 * h / 16
        exact = h * h / 24 * int(np.abs(mids).sum()) + 2 * c**3 / (3 * h * h) * (2 * h - c)
        assert abs(value - exact) <= residual + 1e-14

    def test_refuses_a_split_lobatto_rule_and_an_unknown_order(self):
        breaks = np.array([0.0, math.pi])
        assert su2num.gauss_kronrod(_pointwise(np.sin), breaks, 1, 7)[0] == pytest.approx(
            2.0, abs=1e-6)
        # a split point is no zero of the integrand, so order 7 takes split 1 only
        for order, split in [(7, 2), (7, 8), (9, 1), (15, 1), (0, 1)]:
            with pytest.raises(ValueError, match=f"of {order} nodes with split {split}"):
                su2num.gauss_kronrod(_pointwise(np.sin), breaks, split, order)

    def test_by_piece_hands_left_ends_and_offsets(self):
        breaks = np.array([0.0, 0.5, 2.0])
        seen = []

        def recorded(left, offset):
            seen.append((left.copy(), offset.copy()))
            return np.sin(left + offset)

        # sin is not zero at 0.5 and 2.0, so this runs on K21 split 2
        value, _ = su2num.gauss_kronrod(recorded, breaks, 2, 21)
        assert value == pytest.approx(1.0 - math.cos(2.0), abs=1e-14)
        (left, offset), = seen
        assert left.tolist() == [[0.0], [0.5]]
        assert offset.shape == (2, 42)
        assert 0.0 < offset.min() and np.all(offset[1] <= 1.5) and offset[1].max() > 1.49


class TestIntervalProductL1:
    def test_fused_integrand_matches_kernel_sum(self):
        P, Q = 975, 915
        theta = np.linspace(0.0, math.pi, 20_001)[1:-1]
        fused = su2num._abs_kernel_product(P + 0.5, Q + 0.5, theta)
        direct = 4 * np.abs(kernel_sum(P, theta) * kernel_sum(Q, theta))
        assert np.max(np.abs(fused - direct)) <= 1e-12 * np.max(direct)

    @pytest.mark.parametrize("P,Q", [(1, 1), (2, 2), (3, 1), (32, 30), (100, 37), (975, 915)])
    def test_matches_legendre_16(self, P, Q):
        breaks = interval_product_breakpoints(P, Q)
        value, residual = chunk_pass(P, Q, breaks, 1)
        reference = legendre16_interval_l1(P, Q)
        assert value == pytest.approx(reference, rel=1e-12)
        assert 0 <= residual <= 1e-9 * value

    def test_splitting_keeps_the_value_and_meets_the_rounding_floor(self):
        P, Q = 975, 915
        breaks = interval_product_breakpoints(P, Q)
        passes = [chunk_pass(P, Q, breaks, split) for split in (1, 2, 4, 8)]
        base = passes[0][0]
        for value, _ in passes:
            assert value == pytest.approx(base, rel=1e-13)
        # one halving takes the residual from the G10 error down to rounding
        residuals = [r for _, r in passes]
        assert residuals[1] < residuals[0] / 100
        assert max(residuals[1:]) <= 1e-14 * base

    @pytest.mark.parametrize("order", [7, 21])
    @pytest.mark.parametrize("k2,m2", [(0, 1), (2, 29), (60, 914), (1, 5), (7, 3)])
    def test_matches_the_antiderivative_oracle(self, k2, m2, order):
        # stages 1-3 of the D = 1.1 witness, and two small pairs; the oracle
        # shares no quadrature and finds its own zeros
        P, Q = k2 + m2 + 1, m2 + 1
        breaks = interval_product_breakpoints(P, Q)
        value, residual = chunk_pass(P, Q, breaks, 1, order)
        reference = interval_product_l1_antiderivative(P, Q)
        assert residual > 0
        if order == 21:
            assert value == pytest.approx(reference, rel=1e-12)
            assert residual <= 1e-7 * value
        else:
            # the Lobatto-Kronrod rule is within 7.9e-9 of the oracle here;
            # |K9 - L5| is far from any tolerance, but it still bounds the error
            assert value == pytest.approx(reference, rel=1e-8)
            assert abs(value - reference) <= residual + 1e-12 * reference

    @pytest.mark.parametrize("tolerance", [1e-7, 1e-9])
    @pytest.mark.parametrize("k2,m2", [(0, 1), (2, 29), (60, 914)])
    def test_ladder_matches_the_antiderivative_oracle(self, su2, k2, m2, tolerance):
        # stages 1-3 of the D = 1.1 witness; the residual bounds the error,
        # and 1e-12 of the value covers rounding
        value = Su2IntervalBump(su2, k2, m2).a_norm(QuadratureConfig(tolerance))
        reference = (interval_product_l1_antiderivative(k2 + m2 + 1, m2 + 1)
                     / su2num.sum_squares(m2 + 1))
        # the A-norm is the one interval_product_l1 call, value and residual
        assert (value, value.residual) == su2num.interval_product_l1(k2 + m2 + 1, m2 + 1,
                                                                     tolerance)
        assert 0 < value.residual <= tolerance
        assert abs(value - reference) <= value.residual + 1e-12 * reference

    @staticmethod
    def _record_passes(monkeypatch):
        """(order, split, breaks) of every gauss_kronrod call."""
        calls = []
        original = su2num.gauss_kronrod

        def recording(fn, breaks, split, order=21):
            calls.append((order, split, breaks))
            return original(fn, breaks, split, order)

        monkeypatch.setattr(su2num, "gauss_kronrod", recording)
        return calls

    @staticmethod
    def _pieces_by_nodes(calls):
        """The left ends integrated with each node count a piece, in call order."""
        nodes = sorted({order * split for order, split, _ in calls})
        return {n: np.concatenate([breaks[:-1] for order, split, breaks in calls
                                   if order * split == n]) for n in nodes}

    def test_bench_tolerance_climbs_only_the_first_chunk(self, su2, monkeypatch):
        # stage 4 of the D = 1.1 chain: 59 447 pieces in 7 chunks; at 1e-7
        # only the chunk at theta = 0 climbs to K21
        k2, m2 = 1888, 28_779
        breaks = interval_product_breakpoints(k2 + m2 + 1, m2 + 1)
        calls = self._record_passes(monkeypatch)
        value = Su2IntervalBump(su2, k2, m2).a_norm(QuadratureConfig(tolerance=1e-7))
        assert value.residual <= 1e-7
        by_nodes = self._pieces_by_nodes(calls)
        assert sorted(by_nodes) == [7, 21]
        assert np.array_equal(by_nodes[7], breaks[:-1])
        assert np.array_equal(by_nodes[21], breaks[:su2num.CHUNK_PIECES])

    @pytest.mark.parametrize("k2,m2", [(60, 914), (1888, 28_779)])
    def test_default_tolerance_climbs_a_chunk_prefix(self, su2, monkeypatch, k2, m2):
        # stages 3 and 4: at 1e-9 the chunks that climb to K21 are the
        # first ones, from theta = 0 on, each once and whole
        breaks = interval_product_breakpoints(k2 + m2 + 1, m2 + 1)
        calls = self._record_passes(monkeypatch)
        value = Su2IntervalBump(su2, k2, m2).a_norm()
        assert value.residual <= 1e-9
        by_nodes = self._pieces_by_nodes(calls)
        assert sorted(by_nodes) == [7, 21]
        assert np.array_equal(by_nodes[7], breaks[:-1])
        climbed = by_nodes[21]
        assert climbed.size % su2num.CHUNK_PIECES == 0 or climbed.size == len(breaks) - 1
        assert np.array_equal(np.sort(climbed), breaks[:climbed.size])

    @pytest.mark.parametrize("k2,m2", [(0, 1), (2, 29), (60, 914), (1888, 28_779),
                                       (59_446, 906_157)])
    def test_breakpoints_equal_np_unique_on_the_stages(self, k2, m2):
        self._check_breakpoints(k2 + m2 + 1, m2 + 1)

    @given(P=st.integers(1, 3000), Q=st.integers(1, 3000))
    @example(P=1, Q=1)
    @example(P=500, Q=500)
    @settings(max_examples=60, deadline=None)
    def test_breakpoints_equal_np_unique(self, P, Q):
        self._check_breakpoints(P, Q)

    @staticmethod
    def _check_breakpoints(P, Q):
        roots = [su2num.kernel_roots(P), su2num.kernel_roots(Q)]
        reference = np.unique(np.concatenate([[0.0, math.pi], *roots]))
        merged = interval_product_breakpoints(P, Q)
        assert merged.dtype == reference.dtype
        assert merged.tobytes() == reference.tobytes()

    def test_reduced_integrand_matches_the_unreduced_at_stage_5_phases(self):
        # stage 5 of the D = 1.1 chain: (a/2) theta reaches 1.6e6 rad.  Left
        # ends and offsets on a 2^-28 grid make theta = left + offset and
        # (a/2) theta exact, so the unreduced formula takes numpy's tangent of
        # the exact phase.  Near a kernel zero the value is ill-conditioned in
        # the phase, so the difference is measured against the integrand's
        # envelope (1 + t^2) / t^4 (1 + a_P t)(1 + a_Q t), which bounds it
        # since |h| <= 1/2 + a t.
        a_p, a_q = 965_604.5, 906_158.5
        rng = np.random.default_rng(16)
        grid = 2.0 ** -28
        left = np.round(rng.uniform(0.0, math.pi, (2000, 1)) / grid) * grid
        offset = np.round(rng.uniform(0.0, math.pi / a_p, (2000, 15)) / grid) * grid
        theta = left + offset
        assert np.all(theta - left == offset)
        t = np.tan(0.5 * theta)

        def h(a):
            u = np.tan((0.5 * a) * theta)
            return (u - a * t * (1.0 - u * u)) / (1.0 + u * u)

        unreduced = np.abs(h(a_p) * h(a_q)) * (1.0 + t * t) / t**4
        envelope = (1.0 + t * t) / t**4 * (1.0 + a_p * t) * (1.0 + a_q * t)
        reduced = su2num._abs_kernel_product(a_p, a_q, left, offset)
        assert np.max(np.abs(reduced - unreduced) / envelope) <= 1e-14

    def test_blocked_integrand_equals_one_unblocked_call(self, monkeypatch):
        # stage 4 at 1e-7: every chunk on the Lobatto-Kronrod rung, chunk 0
        # on K21 too.  Each batch's values, block by block over one
        # workspace, are the bits of one _abs_kernel_product call over it
        k2, m2 = 1888, 28_779
        P, Q = k2 + m2 + 1, m2 + 1
        batches = []
        original = su2num.gauss_kronrod

        def comparing(fn, breaks, split, order=21):
            def integrand(left, offset):
                values = fn(left, offset)
                whole = su2num._abs_kernel_product(P + 0.5, Q + 0.5, left, offset)
                batches.append((order, split, len(left), values.tobytes() == whole.tobytes()))
                return values

            return original(integrand, breaks, split, order)

        monkeypatch.setattr(su2num, "gauss_kronrod", comparing)
        su2num.interval_product_l1(P, Q, 1e-7)
        assert {(order, split) for order, split, _, _ in batches} == {(7, 1), (21, 1)}
        assert all(same for *_, same in batches)
        # batches of several blocks, each ending in a partial block
        assert max(pieces for _, _, pieces, _ in batches) > 4 * su2num._INTEGRAND_BLOCK
        assert all(pieces % su2num._INTEGRAND_BLOCK for _, _, pieces, _ in batches)

    def test_unreachable_tolerance_raises_after_the_8x_split(self, su2, monkeypatch):
        calls = self._record_passes(monkeypatch)
        with pytest.raises(NumericError) as info:
            Su2IntervalBump(su2, 2, 5).a_norm(QuadratureConfig(tolerance=1e-30))
        assert info.value.residual is not None and info.value.residual > 1e-30
        # the one chunk, at theta = 0: Lobatto-Kronrod, then K21 with every
        # piece whole and split 2, 4 and 8 ways
        assert [(order, split, breaks[0]) for order, split, breaks in calls] == [
            (7, 1, 0.0), (21, 1, 0.0), (21, 2, 0.0), (21, 4, 0.0), (21, 8, 0.0)]


def cut_into_chunks(breaks):
    """The oracle's whole break array cut into runs of CHUNK_PIECES pieces."""
    pieces = su2num.CHUNK_PIECES
    return [breaks[start:start + pieces + 1] for start in range(0, len(breaks) - 1, pieces)]


class TestIntervalChunks:
    """The breaks of interval_product_l1, made chunk by chunk from one root cursor per kernel."""

    @pytest.mark.parametrize("P,Q", [(1, 1), (2, 2), (3, 1), (975, 915), (30_668, 28_780),
                                     (2 * B + 5, B + 3), (B + 2, B + 2), (965_604, 906_158)])
    def test_chunks_are_the_whole_array_cut_into_runs(self, P, Q):
        # stages 4 and 5 of the D = 1.1 chain, kernels past one and two root
        # blocks, and equal kernels, whose zeros all coincide
        self._check_chunks(P, Q)

    @given(P=st.integers(1, 400), Q=st.integers(1, 400), pieces=st.integers(1, 300),
           block=st.integers(1, 50))
    @example(P=60, Q=60, pieces=3, block=7)
    @example(P=1, Q=37, pieces=1, block=1)
    @example(P=400, Q=390, pieces=300, block=50)
    @example(P=400, Q=400, pieces=300, block=50)
    @settings(max_examples=150, deadline=None)
    def test_chunk_and_block_seams_anywhere(self, P, Q, pieces, block):
        # small chunks and root blocks put seams everywhere, including a
        # chunk seam on a zero that S_P and S_Q share; past 128 pieces a
        # chunk merges only each kernel's share of zeros, or all of them
        # when a zero past the share may be missing (P = Q)
        with mock.patch.object(su2num, "CHUNK_PIECES", pieces), \
                mock.patch.object(su2num, "_ROOT_BLOCK", block):
            self._check_chunks(P, Q)

    @staticmethod
    def _check_chunks(P, Q):
        chunks = list(su2num._interval_chunks(P, Q))
        expected = cut_into_chunks(interval_product_breakpoints(P, Q))
        assert len(chunks) == len(expected)
        for (chunk, again), want in zip(chunks, expected):
            assert chunk.tobytes() == want.tobytes()
            # a chunk that climbs is made again, to the same bits
            assert again().tobytes() == want.tobytes()

    def test_each_cursor_solves_each_block_once(self, monkeypatch):
        # stage 5: the first pass calls kernel_roots once per block of each
        # kernel, on the block grid, and makes no zero twice
        calls = []
        original = su2num.kernel_roots

        def recording(M, lo=1, hi=None):
            calls.append((M, lo, hi))
            return original(M, lo, hi)

        monkeypatch.setattr(su2num, "kernel_roots", recording)
        P, Q = 965_604, 906_158
        for _ in su2num._interval_chunks(P, Q):
            pass
        for M in (P, Q):
            starts = list(range(1, M, B))
            assert [(lo, hi) for m, lo, hi in calls if m == M] == [
                (start, min(start + B, M)) for start in starts]

    def test_an_out_of_order_seam_between_cursor_blocks_raises(self, monkeypatch):
        # the second block of S_P starts on the last zero of the first
        original = su2num.kernel_roots

        def repeating(M, lo=1, hi=None):
            roots = original(M, lo, hi)
            if M == B + 10 and lo > 1:
                roots[0] = original(M, lo - 1, lo)[0]
            return roots

        monkeypatch.setattr(su2num, "kernel_roots", repeating)
        seam = rf"kernel_roots\({B + 10}\): zero {B + 1} is not above the zeros before it"
        with pytest.raises(InternalInvariantError, match=seam):
            su2num.interval_product_l1(B + 10, 2, 1e-7)


class TestIntervalProductBits:
    @pytest.mark.parametrize("tolerance", [1e-7, 1e-9])
    @pytest.mark.parametrize("k2,m2", [(0, 1), (2, 29), (60, 914), (1888, 28_779),
                                       (59_446, 906_157)])
    def test_streamed_breaks_give_the_bits_of_the_whole_array(self, k2, m2, tolerance):
        # all five stages of the D = 1.1 chain
        P, Q = k2 + m2 + 1, m2 + 1
        assert su2num.interval_product_l1(P, Q, tolerance) == interval_product_l1_whole(
            P, Q, tolerance)

    def test_stage_5_holds_one_chunk_not_every_break(self):
        # the whole array of 1 871 762 breaks peaked at 32.85 MiB; the
        # integrand's workspace alone is 2.5 MiB
        tracemalloc.start()
        try:
            su2num.interval_product_l1(965_604, 906_158, 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


def u_product_loops(a, b):
    """Reference: U_n U_m = sum of U_z over the Clebsch-Gordan range of (n, m)."""
    c = [0] * (len(a) + len(b) - 1)
    for n, x in enumerate(a):
        for m, y in enumerate(b):
            for z in range(abs(n - m), n + m + 1, 2):
                c[z] += x * y
    return c


_coefficients = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=12)


class TestUProduct:
    @given(a=_coefficients, b=_coefficients, shift=st.integers(0, 80))
    @settings(max_examples=200, deadline=None)
    def test_matches_clebsch_gordan_loops(self, a, b, shift):
        a = [x << shift for x in a]
        assert su2num.u_product(a, b).tolist() == u_product_loops(a, b)

    def test_int64_edge(self):
        # 2 sum|a| sum|b| = 2^63 - 2^32 stays int64; one more unit of sum|a| reaches 2^63
        a, b = [(1 << 31) - 1], [1 << 31]
        assert su2num.u_product(a, b).dtype == np.int64
        assert su2num.u_product(a + [1], b).dtype == object
        for x, y in [(a, b), (a + [1], b), ([-(1 << 62)], [0, 0, 1])]:
            assert su2num.u_product(x, y).tolist() == u_product_loops(x, y)


class TestUToChebyshevT:
    @pytest.mark.parametrize("degree", [0, 1, 2, 163, 1024])
    def test_chebval_matches_the_sine_closed_form(self, degree):
        # U_n(cos theta) = sin((n+1) theta) / sin theta; odd and even top
        # degrees end the per-parity cumulative sums at either parity
        rng = np.random.default_rng(degree)
        coeffs = rng.uniform(-1.0, 1.0, degree + 1)
        theta = rng.uniform(0.0, math.pi, 200)
        n1 = np.arange(1, degree + 2)
        closed = (np.sin(np.outer(theta, n1)) @ coeffs) / np.sin(theta)
        values = npcheb.chebval(np.cos(theta), su2num.u_to_chebyshev_t(coeffs))
        scale = float(np.sum(np.abs(coeffs) * n1))
        assert np.max(np.abs(values - closed)) <= 1e-12 * scale

    def test_t_coefficients_of_single_u_terms(self):
        # U_2 = 2 T_2 + T_0 and U_3 = 2 T_3 + 2 T_1
        assert su2num.u_to_chebyshev_t([0, 0, 1]).tolist() == [1.0, 0.0, 2.0]
        assert su2num.u_to_chebyshev_t([0, 0, 0, 1]).tolist() == [0.0, 2.0, 0.0, 2.0]


class TestIndicatorSeriesZeros:
    @pytest.mark.parametrize("M", [1, 2, 7, 84, 502])
    def test_an_interval_takes_the_kernel_zeros(self, M):
        want = su2num.kernel_roots(M).tobytes()
        assert su2num.indicator_series_zeros(range(M)).tobytes() == want
        assert su2num.indicator_series_zeros(frozenset(range(M))).tobytes() == want

    @pytest.mark.parametrize("labels", [{3}, {1, 2}, {0, 2, 5, 9}, set(range(1, 30))])
    def test_any_other_set_takes_its_own_companion_zeros(self, labels):
        coeffs = [(n + 1) * (n in labels) for n in range(max(labels) + 1)]
        assert su2num.indicator_series(labels) == coeffs
        got = su2num.indicator_series_zeros(labels)
        assert got.tobytes() == su2num.u_series_roots_theta(coeffs).tobytes()
        # F_A sin theta = sum_{n in A} (n + 1) sin((n + 1) theta) vanishes at each
        n1 = np.array(sorted(labels)) + 1
        assert np.all(np.abs(np.sin(np.outer(got, n1)) @ n1) <= 1e-10 * np.sum(n1 * n1))

    def test_a_point_has_the_zeros_of_its_chebyshev_u(self):
        # U_n(cos theta) = sin((n + 1) theta) / sin theta: zeros k pi / (n + 1)
        got = su2num.indicator_series_zeros({6})
        assert got == pytest.approx(np.arange(1, 7) * math.pi / 7, abs=1e-12)


class TestUSeriesL1:
    def test_given_zeros_replace_the_companion_matrix(self):
        coeffs = np.random.default_rng(5).uniform(-1.0, 1.0, 41)
        zeros = su2num.u_series_roots_theta(coeffs)
        assert su2num.u_series_l1(coeffs, 1e-9) == su2num.u_series_l1(coeffs, 1e-9, zeros)
        with mock.patch.object(su2num, "u_series_roots_theta") as companion:
            su2num.u_series_l1(coeffs, 1e-9, zeros)
        companion.assert_not_called()

    @pytest.mark.parametrize("degree", [2, 41, 162])
    def test_breaks_equal_np_unique(self, degree):
        # 0, pi and the zeros of the series, bit for bit as np.unique sorts them
        coeffs = np.random.default_rng(degree).uniform(-1.0, 1.0, degree + 1)
        merged = np.concatenate([[0.0, math.pi], su2num.u_series_roots_theta(coeffs)])
        reference = np.unique(merged)
        assert su2num._breaks(merged).tobytes() == reference.tobytes()

    def test_leaves_numpy_ma_unimported(self):
        # np.unique's first call imports numpy.ma, which a cold run pays about 19 ms for
        code = ("import sys\n"
                "from hypergroups import FiniteFunction\n"
                "from hypergroups.fourier import a_norm_su2\n"
                "assert a_norm_su2(FiniteFunction({0: 1, 3: 2, 7: -1})) > 0\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(hypergroups.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr
