"""Kernel zeros and the Gauss-Kronrod interval quadrature of su2num."""

import math

import numpy as np
import pytest

from hypergroups import NumericError, QuadratureConfig
from hypergroups import su2num
from hypergroups.fourier import Su2IntervalBump


def bisection_kernel_roots(M, grid_factor=4, iterations=40):
    """Reference zeros of S_M: sign changes on a uniform grid, then bisection."""
    if M <= 1:
        return np.empty(0)
    count = grid_factor * (M + 1) + 1
    theta = np.linspace(0.0, math.pi, count)[1:-1]
    values = su2num.kernel_sum(M, theta)
    sign = np.sign(values)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    lo = theta[flips].copy()
    hi = theta[flips + 1].copy()
    lo_sign = sign[flips]
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        same = np.sign(su2num.kernel_sum(M, mid)) == lo_sign
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
        return np.abs(su2num.kernel_sum(P, theta) * su2num.kernel_sum(Q, theta))

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

    def test_kernel_vanishes_at_roots(self):
        M = 975
        roots = su2num.kernel_roots(M)
        # |S_M'| <= sum k^2 < M^3, so a root off by a few ulps leaves |S_M| < 1e-14 M^3
        assert np.max(np.abs(su2num.kernel_sum(M, roots))) <= 1e-14 * M**3


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


class TestIntervalProductL1:
    def test_fused_integrand_matches_kernel_sum(self):
        P, Q = 975, 915
        theta = np.linspace(0.0, math.pi, 20_001)[1:-1]
        fused = su2num._abs_kernel_product(P + 0.5, Q + 0.5, theta)
        direct = 4 * np.abs(su2num.kernel_sum(P, theta) * su2num.kernel_sum(Q, theta))
        assert np.max(np.abs(fused - direct)) <= 1e-12 * np.max(direct)

    @pytest.mark.parametrize("P,Q", [(1, 1), (2, 2), (3, 1), (32, 30), (100, 37), (975, 915)])
    def test_matches_legendre_16(self, P, Q):
        breaks = su2num.interval_product_breakpoints(P, Q)
        value, residual = su2num.interval_product_l1(P, Q, breaks, 1)
        reference = legendre16_interval_l1(P, Q)
        assert value == pytest.approx(reference, rel=1e-12)
        assert 0 <= residual <= 1e-9 * value

    def test_splitting_keeps_the_value_and_meets_the_rounding_floor(self):
        P, Q = 975, 915
        breaks = su2num.interval_product_breakpoints(P, Q)
        passes = [su2num.interval_product_l1(P, Q, breaks, split) for split in (1, 2, 4, 8)]
        base = passes[0][0]
        for value, _ in passes:
            assert value == pytest.approx(base, rel=1e-13)
        # one halving takes the residual from the G10 error down to rounding
        residuals = [r for _, r in passes]
        assert residuals[1] < residuals[0] / 100
        assert max(residuals[1:]) <= 1e-14 * base

    def test_unreachable_tolerance_raises_after_the_8x_split(self, su2, monkeypatch):
        splits = []
        original = su2num.interval_product_l1

        def recording(P, Q, breaks, split):
            splits.append(split)
            return original(P, Q, breaks, split)

        monkeypatch.setattr(su2num, "interval_product_l1", recording)
        with pytest.raises(NumericError) as info:
            Su2IntervalBump.build(su2, 2, 5).a_norm(QuadratureConfig(tolerance=1e-30))
        assert info.value.residual is not None and info.value.residual > 1e-30
        assert splits == [1, 2, 4, 8]
