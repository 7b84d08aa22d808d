"""Closed-form kernels for the dual of SU(2).

Labels are n = 2*spin, so the irrep at label n has dimension n + 1 and the
character at torus angle theta is the Chebyshev kernel U_n(cos theta)
= sin((n+1) theta) / sin theta.  Interval subsets {0, ..., n} have Haar mass
S(n+1) with S(N) = sum of the first N squares, and products of interval
indicators linearize in the U-basis with integer coefficients.  Those
integer sequences and the associated oscillatory quadrature are what this
module computes; everything exact is plain `int`/`Fraction`, the quadrature
is numpy float64.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial.legendre import leggauss

from .core import InternalInvariantError

_INT64_SAFE = 2**62


def sum_squares(n: int) -> int:
    """1^2 + 2^2 + ... + n^2."""
    if n < 0:
        return 0
    return n * (n + 1) * (2 * n + 1) // 6


def sum_first(n: int) -> int:
    if n < 0:
        return 0
    return n * (n + 1) // 2


def interval_haar_n2(n2: int) -> int:
    """Haar mass of the interval of labels {0, 1, ..., n2}."""
    return sum_squares(n2 + 1)


def interval_ratio_n2(k2: int, m2: int) -> Fraction:
    """h(interval(k) * interval(m)) / h(interval(m)) for labels 2k, 2m."""
    return Fraction(sum_squares(m2 + k2 + 1), sum_squares(m2 + 1))


def min_m2_for_ratio(k2: int, bound: Fraction, m2_floor: int = 0) -> int:
    """Smallest m2 >= max(k2, m2_floor) with interval ratio < bound.

    The ratio is strictly decreasing in m2 for fixed k2 >= 1 and tends to 1,
    so doubling plus bisection finds the exact minimum.
    """
    if bound <= 1:
        raise ValueError("ratio bound must exceed 1")
    lo = max(k2, m2_floor)

    def ok(m2: int) -> bool:
        return (sum_squares(m2 + k2 + 1) * bound.denominator
                < sum_squares(m2 + 1) * bound.numerator)

    if ok(lo):
        return lo
    hi = max(2 * lo, lo + 1)
    while not ok(hi):
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Linearization of products of weighted interval sums in the U-basis
# ---------------------------------------------------------------------------
#
# With a_p = p for p <= P and b_q = q for q <= Q (dimension variables),
#   (sum_p a_p U_{p-1}) (sum_q b_q U_{q-1}) = sum_w c_w U_{w-1},
# and multiplying by sin^2 theta turns both factors into sine sums, giving
# the exact recurrence
#   c_1 = A(0),   c_{j+1} = c_{j-1} + A(j) - B(j)   (j >= 1),
# where A(j) = sum_{|p-q|=j} p q and B(j) = sum_{p+q=j} p q over the index
# boxes.  A and B have O(1) closed forms; c_w >= 0 and c_w = 0 for w >= P+Q.


def _corr_conv_terms(P: int, Q: int) -> tuple[list[int], list[int]]:
    """A(j) and B(j) for j = 0 .. P+Q+1, exact."""
    top = P + Q + 2
    max_n = max(P, Q) + 1
    limit = (top * sum_first(max_n) + 2 * sum_squares(max_n)) * 2
    if limit < _INT64_SAFE:
        return _corr_conv_terms_np(P, Q, top)
    return _corr_conv_terms_py(P, Q, top)


def _corr_conv_terms_np(P: int, Q: int, top: int) -> tuple[list[int], list[int]]:
    n = np.arange(0, max(P, Q) + 2, dtype=np.int64)
    s1 = np.concatenate(([0], np.cumsum(n[1:], dtype=np.int64)))
    s2 = np.concatenate(([0], np.cumsum(n[1:] * n[1:], dtype=np.int64)))

    j = np.arange(0, top, dtype=np.int64)
    # A(j): sum over q <= L of q (q + j), with L = min(Q, P - j), plus the
    # mirrored sum with P and Q swapped; j = 0 counts the diagonal once.
    l1 = np.clip(np.minimum(Q, P - j), 0, None)
    l2 = np.clip(np.minimum(P, Q - j), 0, None)
    a = (s2[l1] + j * s1[l1]) + (s2[l2] + j * s1[l2])
    a[0] = s2[min(P, Q)]
    # B(j): sum over p in [max(1, j - Q), min(P, j - 1)] of p (j - p).
    lo = np.clip(j - Q, 1, None)
    hi = np.minimum(P, j - 1)
    valid = hi >= lo
    lo_idx = np.where(valid, lo, 1)
    hi_idx = np.where(valid, hi, 0)
    b = np.where(valid, j * (s1[hi_idx] - s1[lo_idx - 1]) - (s2[hi_idx] - s2[lo_idx - 1]), 0)
    return a.tolist(), b.tolist()


def _corr_conv_terms_py(P: int, Q: int, top: int) -> tuple[list[int], list[int]]:
    a_list, b_list = [], []
    for j in range(top):
        l1 = min(Q, P - j)
        l2 = min(P, Q - j)
        a = 0
        if l1 > 0:
            a += sum_squares(l1) + j * sum_first(l1)
        if l2 > 0:
            a += sum_squares(l2) + j * sum_first(l2)
        if j == 0:
            a = sum_squares(min(P, Q))
        lo, hi = max(1, j - Q), min(P, j - 1)
        b = 0
        if hi >= lo:
            b = j * (sum_first(hi) - sum_first(lo - 1)) - (sum_squares(hi) - sum_squares(lo - 1))
        a_list.append(a)
        b_list.append(b)
    return a_list, b_list


def linearized_interval_product(P: int, Q: int) -> list[int]:
    """Coefficients c indexed by w with c[w] the U_{w-1} coefficient.

    Returns a list of length P+Q with c[0] = 0 unused.  Raises if the
    recurrence fails its own sanity constraints (nonnegativity, vanishing
    tail), which would indicate a bug.
    """
    if P < 1 or Q < 1:
        raise ValueError("interval dimensions must be positive")
    a, b = _corr_conv_terms(P, Q)
    c = [0] * (P + Q + 2)
    c[1] = a[0]
    for j in range(1, P + Q + 1):
        c[j + 1] = c[j - 1] + a[j] - b[j]
    if c[P + Q] != 0 or c[P + Q + 1] != 0:
        raise AssertionError("interval linearization tail does not vanish")
    if any(v < 0 for v in c):
        raise AssertionError("interval linearization produced a negative coefficient")
    return c[: P + Q]


# ---------------------------------------------------------------------------
# Weighted Dirichlet kernels S_M(theta) = sum_{k=1}^{M} k sin(k theta)
# ---------------------------------------------------------------------------


def kernel_sum(M: int, theta: np.ndarray) -> np.ndarray:
    """S_M(theta) in closed form, valid on the open interval (0, pi)."""
    a = M + 0.5
    half = 0.5 * theta
    s = np.sin(half)
    c = np.cos(half)
    return (c * np.sin(a * theta) - (2 * M + 1) * s * np.cos(a * theta)) / (4 * s * s)


_NEWTON_SWEEPS = 8
_ROOT_SLACK = 4 * float(np.spacing(math.pi))


def kernel_roots(M: int) -> np.ndarray:
    """Interior zeros of S_M on (0, pi), in increasing order, by Newton's method.

    With a = M + 1/2, S_M(theta) = g(theta) / (4 sin^2(theta/2)), where

        g(theta)  = cos(theta/2) sin(a theta) - 2a sin(theta/2) cos(a theta),
        g'(theta) = (2a^2 - 1/2) sin(theta/2) sin(a theta).

    For k = 1 .. M-1 the bracket [k pi/a, (k + 1/2) pi/a] lies in (0, pi),
    and g changes sign across it: at the left end sin(a theta) = 0, so g has
    the sign of -cos(a theta), which is (-1)^(k+1); at the right end
    cos(a theta) = 0, so g has the sign of sin(a theta), which is (-1)^k.
    By the g' identity, g is strictly monotone between consecutive zeros of
    sin(a theta), so each bracket holds exactly one zero, and since
    g(0) = g(pi) = 0 there is none elsewhere in (0, pi).

    The Newton step g/g' = (cot(theta/2) - 2a cot(a theta)) / (2a^2 - 1/2)
    costs two tangents.  It starts one arctan step below the right end,
    theta_0 = ((k + 1/2) pi - arctan(1 / (2a tan(hi/2)))) / a, which solves
    tan(a theta) = 2a tan(theta/2) with the right side frozen at the end,
    and stops once no step exceeds a few ulps of pi (3 to 4 sweeps).
    Neither the convergence nor the rounding is proven, so the result is
    checked: exactly M - 1 strictly increasing roots, each in its bracket
    up to a few ulps (near pi a root can round past the right end).  A
    violation raises InternalInvariantError.
    """
    if M <= 1:
        return np.empty(0)
    a = M + 0.5
    k = np.arange(1, M, dtype=float)
    lo = k * (math.pi / a)
    hi = (k + 0.5) * (math.pi / a)
    theta = ((k + 0.5) * math.pi - np.arctan(1.0 / (2 * a * np.tan(0.5 * hi)))) / a
    scale = 2 * a * a - 0.5
    for _ in range(_NEWTON_SWEEPS):
        step = 1.0 / np.tan(0.5 * theta)
        step -= 2 * a / np.tan(a * theta)
        step /= scale
        theta -= step
        if np.max(np.abs(step)) <= _ROOT_SLACK:
            break
    else:
        raise InternalInvariantError(f"kernel_roots({M}): Newton did not converge")
    inside = (theta >= lo - _ROOT_SLACK) & (theta <= hi + _ROOT_SLACK)
    if not (inside.all() and np.all(np.diff(theta) > 0)):
        raise InternalInvariantError(
            f"kernel_roots({M}): roots are not one per bracket in increasing order")
    return theta


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    rule = _GL_CACHE.get(order)
    if rule is None:
        rule = leggauss(order)
        _GL_CACHE[order] = rule
    return rule


def piecewise_gauss(fn, breakpoints: np.ndarray, order: int, chunk: int = 200_000) -> float:
    """Integrate fn over [b_0, b_last] with Gauss-Legendre on each piece.

    ``fn`` must accept a flat numpy array of angles.  Pieces are processed in
    chunks to bound peak memory for very fine partitions.
    """
    nodes, weights = _gl_rule(order)
    total = 0.0
    n_pieces = len(breakpoints) - 1
    for start in range(0, n_pieces, chunk):
        stop = min(start + chunk, n_pieces)
        left = breakpoints[start:stop]
        right = breakpoints[start + 1:stop + 1]
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = fn(pts.ravel()).reshape(pts.shape)
        total += float(np.sum(half * (vals @ weights)))
    return total


# Embedded Gauss 10 / Kronrod 21 pair on [-1, 1], the QUADPACK qk21 constants
# (Piessens et al., 1983): the Kronrod abscissae of the right half with the
# Gauss abscissae at odd positions, the Kronrod weights, and the Gauss weights.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208643474262, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _kronrod21() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 21 nodes in increasing order, their K21 weights and G10 weights."""
    nodes = np.concatenate([-np.array(_XGK[:-1]), _XGK[::-1]])
    kronrod = np.concatenate([_WGK[:-1], _WGK[::-1]])
    gauss = np.zeros(21)
    gauss[1:10:2] = _WG
    gauss[11:20:2] = _WG[::-1]
    return nodes, kronrod, gauss


_KRONROD21 = _kronrod21()

# nodes per chunk in interval_product_l1: the working arrays stay in cache
_CHUNK_NODES = 1 << 16


def interval_product_breakpoints(P: int, Q: int) -> np.ndarray:
    """0, pi and the interior zeros of S_P and S_Q, sorted, without repeats."""
    pieces = [np.array([0.0, math.pi]), kernel_roots(P), kernel_roots(Q)]
    return np.unique(np.concatenate(pieces))


def _abs_kernel_product(a_p: float, a_q: float, theta: np.ndarray) -> np.ndarray:
    """4 |S_P(theta) S_Q(theta)| for a = M + 1/2, from three tangents.

    With t = tan(theta/2) and u = tan(a theta/2) the half-angle formulas give
    4 sin^2(theta/2) S_M = cos(theta/2) (sin(a theta) - 2a t cos(a theta))
    = 2 cos(theta/2) h, h = (u - a t (1 - u^2)) / (1 + u^2), so
    4 |S_P S_Q| = |h_P h_Q| (1 + t^2) / t^4.  The angle theta/2 is shared by
    both kernels.  Three tangents replace six sines and cosines, and numpy's
    float64 tangent is SIMD-vectorized on x86 where its sine and cosine are
    not: 6 ns against 29 ns per value with numpy 2.4 on an AVX-512 core.
    """
    t = np.tan(0.5 * theta)
    out = _tangent_numerator(a_p, t, np.tan((0.5 * a_p) * theta))
    out *= _tangent_numerator(a_q, t, np.tan((0.5 * a_q) * theta))
    np.abs(out, out=out)
    t *= t
    out /= t
    out /= t
    t += 1.0
    out *= t
    return out


def _tangent_numerator(a: float, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(u - a t (1 - u^2)) / (1 + u^2), elementwise."""
    u2 = u * u
    out = u2 - 1.0
    out *= a * t
    out += u
    u2 += 1.0
    out /= u2
    return out


def interval_product_l1(P: int, Q: int, breaks: np.ndarray,
                        split: int) -> tuple[float, float]:
    """(2/pi) * integral of |S_P(theta) S_Q(theta)| over (0, pi), with residual.

    ``breaks`` come from :func:`interval_product_breakpoints`, so |S_P S_Q|
    is smooth on each piece between them; each piece is cut into
    ``split`` equal parts and integrated with the Gauss 10 / Kronrod 21 pair.
    The value is the K21 sum.  The residual is (2/pi) times the sum over all
    parts of |K21 - G10|, added without cancellation: per part it estimates
    the G10 error, and since K21 is exact to degree 31 where G10 is exact
    only to 19, it normally overstates the error of the K21 value.  Raises
    no error itself; the caller compares the residual with its budget and
    refines ``split``.
    """
    nodes, kronrod, gauss = _KRONROD21
    weights = np.stack([kronrod, kronrod - gauss], axis=1)
    offsets = ((np.arange(split)[:, None] + 0.5 * (nodes + 1.0)) / split).ravel()
    a_p, a_q = P + 0.5, Q + 0.5
    per_chunk = max(1, _CHUNK_NODES // offsets.size)
    total = residual = 0.0
    n_pieces = len(breaks) - 1
    for start in range(0, n_pieces, per_chunk):
        stop = min(start + per_chunk, n_pieces)
        left = breaks[start:stop]
        width = breaks[start + 1:stop + 1] - left
        pts = left[:, None] + width[:, None] * offsets
        sums = _abs_kernel_product(a_p, a_q, pts).reshape(-1, split, 21) @ weights
        half = (0.5 / split) * width
        total += float(half @ sums[:, :, 0].sum(axis=1))
        residual += float(half @ np.abs(sums[:, :, 1]).sum(axis=1))
    scale = 0.5 / math.pi  # 2/pi for the normalisation, 1/4 for the integrand
    return scale * total, scale * residual


# ---------------------------------------------------------------------------
# Generic Chebyshev-U series: evaluation, zeros, oscillatory quadrature
# ---------------------------------------------------------------------------


def u_series_eval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] * U_n(x) by forward recurrence (stable for |x| <= 1)."""
    result = np.zeros_like(x, dtype=float)
    u_prev = np.ones_like(x, dtype=float)
    u_curr = 2.0 * x
    for n, c in enumerate(coeffs):
        if n == 0:
            result += c * u_prev
            continue
        if n == 1:
            term = u_curr
        else:
            term = 2.0 * x * u_curr - u_prev
            u_prev, u_curr = u_curr, term
        result += c * term
    return result


def u_to_chebyshev_t(coeffs: np.ndarray) -> np.ndarray:
    """Convert a U-basis coefficient vector to the Chebyshev T basis."""
    n_max = len(coeffs) - 1
    t = np.zeros(n_max + 1)
    for n, c in enumerate(coeffs):
        if c == 0.0:
            continue
        t[n % 2:n + 1:2] += 2.0 * c
        if n % 2 == 0:
            t[0] -= c
    return t


def u_series_roots_theta(coeffs: np.ndarray) -> np.ndarray:
    """Angles in (0, pi) where sum coeffs[n] U_n(cos theta) vanishes."""
    t = u_to_chebyshev_t(coeffs)
    t = np.trim_zeros(t, "b")
    if len(t) <= 1:
        return np.empty(0)
    roots = npcheb.chebroots(t)
    real = roots[np.abs(roots.imag) < 1e-9].real
    inside = real[(real > -1.0 + 1e-12) & (real < 1.0 - 1e-12)]
    return np.sort(np.arccos(np.clip(inside, -1.0, 1.0)))


def adaptive_simpson(fn, a: float, b: float, tolerance: float,
                     max_intervals: int = 1 << 20) -> tuple[float, float]:
    """Plain adaptive Simpson; returns (value, residual estimate).

    Raises RuntimeError when the interval budget runs out; callers translate
    that into their own error type.
    """

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    stack = [(a, b, fn(a), fn(0.5 * (a + b)), fn(b), tolerance)]
    total = 0.0
    residual = 0.0
    used = 0
    while stack:
        x0, x2, f0, f1, f2, tol = stack.pop()
        used += 1
        if used > max_intervals:
            raise RuntimeError("adaptive Simpson interval budget exhausted")
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = fn(xl)
        fr = fn(xr)
        whole = simpson(x0, x2, f0, f1, f2)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = abs(left + right - whole) / 15.0
        if err <= tol or (x2 - x0) < 1e-13:
            total += left + right + (left + right - whole) / 15.0
            residual += err
        else:
            stack.append((x0, xm, f0, fl, f1, 0.5 * tol))
            stack.append((xm, x2, f1, fr, f2, 0.5 * tol))
    return total, residual
