"""Closed-form kernels for the dual of SU(2).

Labels are n = 2*spin, so the irrep at label n has dimension n + 1 and the
character at torus angle theta is the Chebyshev kernel U_n(cos theta)
= sin((n+1) theta) / sin theta.  Interval subsets {0, ..., n} have Haar mass
S(n+1) with S(N) = sum of the first N squares, and products of interval
indicators linearize in the U-basis with integer coefficients.  Those
coefficients have a closed form, a quartic on each parity class, checked at
O(1) cost against the recurrence that defines them; the recurrence run over
every index survives only as the tests' reference.  Closed forms and the
associated oscillatory quadrature are what this module computes; everything
exact is plain `int`/`Fraction`, the quadrature is numpy float64.
"""

from __future__ import annotations

import math
import functools
from collections.abc import Callable, Collection, Iterable, Iterator
from fractions import Fraction
from typing import Any

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial.legendre import leggauss

from .core import INT64_LIMIT, InternalInvariantError, NumericError


def sum_squares(n: int) -> int:
    """1^2 + 2^2 + ... + n^2."""
    if n < 0:
        return 0
    return n * (n + 1) * (2 * n + 1) // 6


def sum_first(n: int) -> int:
    if n < 0:
        return 0
    return n * (n + 1) // 2


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
# boxes.  A and B are cubics in j between breakpoints, and c has the closed
# form of :func:`plateau_numerator`.


def _ab_terms(P: int, Q: int, j: int) -> tuple[int, int]:
    """A(j) and B(j), exact."""
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
    return a, b


def linearized_interval_product(P: int, Q: int) -> list[int]:
    """Coefficients c indexed by w with c[w] the U_{w-1} coefficient.

    Runs the recurrence over every j: the reference that the closed form
    :func:`plateau_numerator` is tested against.  Returns a list of length
    P+Q with c[0] = 0 unused.  Raises if the recurrence fails its own
    sanity constraints (nonnegativity, vanishing tail).
    """
    if P < 1 or Q < 1:
        raise ValueError("interval dimensions must be positive")
    c = [0] * (P + Q + 2)
    c[1] = _ab_terms(P, Q, 0)[0]
    for j in range(1, P + Q + 1):
        a, b = _ab_terms(P, Q, j)
        c[j + 1] = c[j - 1] + a - b
    if c[P + Q] != 0 or c[P + Q + 1] != 0:
        raise AssertionError("interval linearization tail does not vanish")
    if any(v < 0 for v in c):
        raise AssertionError("interval linearization produced a negative coefficient")
    return c[: P + Q]


def plateau_numerator(k2: int, m2: int, w: int) -> int:
    """c_w for P = k2 + m2 + 1 and Q = m2 + 1, in closed form (w >= 0).

    These are the numerators of the spin-interval plateau with K = {0..k2},
    V = {0..m2}: u(z) = c_{z+1} / (h(V) (z+1)), h(V) = S2(Q) with S2 the
    sum of the first squares.  Put T = P + Q = k2 + 2 m2 + 2, s = T + 1,
    d = s - w and X = w (w + 2s) - 3 k2^2.  Then

        c_w = h(V) w                       for 0 <= w <= k2 + 1,
        48 c_w = (d^2 - 1) X               for k2 + 2 <= w <= T, w = k2 mod 2,
        48 c_w = d^2 X + d (w + 3s)        for k2 + 2 <= w <= T otherwise,
        c_w = 0                            for w > T.

    Written out, (d^2 - 1) X = (T - w)(T + 2 - w)(w^2 + 2(T+1)w - 3k2^2) and
    d^2 X + d (w + 3s) = (T + 1 - w)((2T^2 + 4T + 3k2^2 + 3) w - w^3
    - (T+1) w^2 - 3(T+1)(k2^2 - 1)).

    Derivation from the recurrence, with D(j) = A(j) - B(j) (P - Q = k2):

    * A(0) = S2(Q) = h(V), and D(j) = 2 h(V) for 1 <= j <= k2 (on j <= Q
      and on Q < j <= k2 alike).  So c_0 = 0, c_1 = h(V) and c_{j+1} =
      c_{j-1} + 2 h(V) give c_w = h(V) w up to w = k2 + 1.
    * For j >= k2 + 1, A and B change formula at j = Q and j = P (the box
      edges), but on every piece the cubics reduce to one:
      D(j) = (j - s)(2 j^2 + 2 s j - s^2 - 3 k2^2 + 1) / 12.
    * The product has U-degree (P - 1) + (Q - 1) = T - 2, so c_T = c_{T+1}
      = 0.  Running c_w = c_{w+2} - D(w+1) down from there gives, for
      w >= k2, with t = s - j,
      c_w = -sum_{j = w+1, w+3, .. <= s} D(j)
          = (1/12) sum_{t < d, t = d-1 mod 2} t (3 (s - t)^2 - t^2 - 3 k2^2 + 1).
      Summing over t = 0, 2, .., d - 1 (d odd, i.e. w = k2 mod 2) and over
      t = 1, 3, .., d - 1 (d even) gives the two quartics above.  They also
      equal h(V) w at w = k2 and k2 + 1, and vanish at w = T and T + 1.

    Nonnegativity: for k2 + 2 <= w <= T we have w > k2 and s > w, so
    X > w * 3w - 3 k2^2 > 0, and d >= 1; hence (d^2 - 1) X >= 0 and
    d^2 X + d (w + 3s) > 0.  Below, h(V) w >= 0.

    :func:`check_plateau_recurrence` re-proves the formula for each (k2, m2)
    the library builds, and :func:`linearized_interval_product` is its
    reference in the tests.
    """
    if w <= k2 + 1:
        return sum_squares(m2 + 1) * w
    top = k2 + 2 * m2 + 2
    if w > top:
        return 0
    return plateau_quartic48(k2, top + 1, w, (w - k2) % 2 == 1) // 48


def plateau_quartic48(k2: int, s: Any, w: Any, odd: bool) -> Any:
    """48 c_w past w = k2 + 1, factored; ``s`` = T + 1, ``odd`` = (w - k2 odd).

    Elementwise, so ``w`` may be an int or a float array of one parity class.
    """
    d = s - w
    x = w * (w + 2 * s) - 3 * k2 * k2
    return d * d * x + (d * (w + 3 * s) if odd else -x)


def check_plateau_recurrence(k2: int, m2: int, numerator: Callable[[int], int]) -> None:
    """Prove that ``numerator(w)`` is c_w of (k2, m2), at O(1) cost.

    Checks c_0 = 0, c_1 = A(0) and c_{j+1} = c_{j-1} + A(j) - B(j) at the
    first 10 j of every piece of 1 <= j <= T.  A piece ends where A, B,
    c_{j-1} or c_{j+1} changes formula: A at j = k2 + 1, Q + 1, P + 1;
    B at Q + 1, P + 1; c_{j+1} at k2 + 1; c_{j-1} at k2 + 3.

    The degree argument: on one piece A(j) and B(j) are fixed cubics in j
    (sums of a fixed polynomial between ends that are fixed linear
    functions of j), and for j of one parity c_{j+1} and c_{j-1} each follow
    one fixed polynomial of degree <= 4 in j (linear or one quartic).  So on
    each parity class of a piece the residual c_{j+1} - c_{j-1} - A(j) + B(j)
    is a polynomial of degree <= 4, and five zeros make it vanish.  The
    first 10 j hold five of each parity, and a shorter piece is checked in
    full.  The recurrence for j = 1 .. T then fixes c_0 .. c_{T+1}; past that
    A = B = 0 and the numerator is 0.  A failure raises InternalInvariantError.
    """
    P, Q = k2 + m2 + 1, m2 + 1
    top = P + Q
    if numerator(0) != 0 or numerator(1) != _ab_terms(P, Q, 0)[0]:
        raise InternalInvariantError(f"plateau ({k2}, {m2}): c_0 or c_1 is wrong")
    starts = sorted({j for j in (1, k2 + 1, k2 + 3, Q + 1, P + 1) if j <= top})
    for start, stop in zip(starts, starts[1:] + [top + 1]):
        for j in range(start, min(start + 10, stop)):
            a, b = _ab_terms(P, Q, j)
            if numerator(j + 1) != numerator(j - 1) + a - b:
                raise InternalInvariantError(
                    f"plateau ({k2}, {m2}): the closed form breaks the recurrence at j = {j}")


def poly_sum(f: Callable[[int], Any], n: int, deg: int) -> Fraction:
    """sum of f(i) for i in range(n), where f is a polynomial of degree <= deg.

    The partial sums S(0) .. S(deg + 1) fix S, a polynomial of degree
    deg + 1, and Lagrange extrapolation gives S(n) exactly.
    """
    partial = [Fraction(0)]
    for i in range(deg + 1):
        partial.append(partial[-1] + f(i))
    if n < len(partial):
        return partial[n]
    total = Fraction(0)
    for k, s_k in enumerate(partial):
        weight = Fraction(1)
        for m in range(len(partial)):
            if m != k:
                weight *= Fraction(n - m, k - m)
        total += s_k * weight
    return total


# ---------------------------------------------------------------------------
# Weighted Dirichlet kernels S_M(theta) = sum_{k=1}^{M} k sin(k theta)
# ---------------------------------------------------------------------------


_NEWTON_SWEEPS = 8
_ROOT_SLACK = 4 * float(np.spacing(math.pi))
# brackets per block of kernel_roots: the block's working arrays stay in cache
_ROOT_BLOCK = 1 << 15


def kernel_roots(M: int, lo: int = 1, hi: int | None = None) -> np.ndarray:
    """Zeros k = lo .. hi-1 of S_M in (0, pi), in increasing order, by Newton's method.

    Zero k is the one in bracket k below; by default (lo = 1, hi = M) these
    are all M - 1 interior zeros.  A range outside 1 .. M raises ValueError.
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

    Newton runs on the phase phi = a theta - k pi, which stays in [0, pi/2]
    on the bracket, with theta = (k pi + phi) / a.  The step
    a g/g' = (cot(theta/2) - 2a cot(phi)) / ((2a^2 - 1/2) / a) costs two
    tangents, both of small arguments; a tangent of a theta itself, up to
    3e6 rad, would cost five times as much.  It starts one arctan step below
    the right end, phi_0 = pi/2 - arctan(1 / (2a tan(hi/2))), which solves
    tan(phi) = 2a tan(theta/2) with the right side frozen at the end.  Each
    root stops on its own, once its step moves theta by at most a few ulps
    of pi, and later sweeps run only on the roots still moving: at
    M = 965 604, 265 of them after the first sweep.  So every root's bits
    depend on its k alone, and a range holds the bits of the same roots of
    the whole array.  The brackets are solved in blocks of _ROOT_BLOCK,
    each written into the one result array, so beside the hi - lo roots a
    call holds a few arrays of one block.  Neither the convergence nor the
    rounding is proven, so the result is checked: a root still moving after
    _NEWTON_SWEEPS sweeps, or anything but strictly increasing roots each
    in its bracket up to a few ulps (near pi a root can round past the
    right end), raises InternalInvariantError.  The order check covers the
    seams between blocks; a caller that joins ranges checks its own seams.
    """
    hi = max(M, 1) if hi is None else hi
    if not 1 <= lo <= hi <= max(M, 1):
        raise ValueError(f"kernel_roots({M}): no bracket range {lo} .. {hi - 1}")
    a = M + 0.5
    scale = (2 * a * a - 0.5) / a
    theta = np.empty(hi - lo)
    inside = True
    for start in range(lo, hi, _ROOT_BLOCK):
        # bracket k is [k pi, k pi + pi/2] / a
        k_pi = np.arange(start, min(start + _ROOT_BLOCK, hi)) * math.pi
        phi = 0.5 * math.pi - np.arctan(1.0 / (2 * a * np.tan((0.5 / a) * (k_pi + 0.5 * math.pi))))
        # the whole block, then the indices of the roots still moving
        moving = slice(None)
        for _ in range(_NEWTON_SWEEPS):
            step = 1.0 / np.tan((0.5 / a) * (k_pi[moving] + phi[moving]))
            step -= 2 * a / np.tan(phi[moving])
            step /= scale
            phi[moving] -= step
            still = np.abs(step) > a * _ROOT_SLACK
            moving = np.flatnonzero(still) if isinstance(moving, slice) else moving[still]
            if not moving.size:
                break
        else:
            raise InternalInvariantError(f"kernel_roots({M}): Newton did not converge")
        block = theta[start - lo:start - lo + k_pi.size]
        np.add(phi, k_pi, out=block)
        block /= a
        inside &= bool(np.all((block >= k_pi / a - _ROOT_SLACK)
                              & (block <= (k_pi + 0.5 * math.pi) / a + _ROOT_SLACK)))
    # the order check runs over the whole array, so it covers the block seams
    if not (inside and np.all(np.diff(theta) > 0)):
        raise InternalInvariantError(
            f"kernel_roots({M}): roots are not one per bracket in increasing order")
    return theta


def piecewise_gauss(fn, breakpoints: np.ndarray, order: int) -> float:
    """Integrate fn over [b_0, b_last] with Gauss-Legendre on each piece.

    A fixed-order reference rule for the tests; the library integrates with
    :func:`gauss_kronrod`.  ``fn`` must accept a flat numpy array of angles.
    """
    nodes, weights = leggauss(order)
    half = 0.5 * np.diff(breakpoints)
    mid = 0.5 * (breakpoints[1:] + breakpoints[:-1])
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return float(np.sum(half * (vals @ weights)))


# Embedded lower / Kronrod pairs on [-1, 1]: the Kronrod abscissae of the
# right half from the outside in, ending at the centre, with the lower rule's
# abscissae at odd positions; the Kronrod weights; and the lower rule's
# weights.  The Lobatto 5 / Kronrod 9 pair (Gander & Gautschi, 2000) leaves
# out its end nodes +-1; its Kronrod nodes are the zeros of x^4 - (10/11) x^2
# + 145/1573, with weights from the moment equations, to 25 digits.  The
# 10/21 pair is QUADPACK's qk21 (Piessens et al., 1983).
_XLK9 = (0.8904055275126687865702907, 0.6546536707079771437982925,
         0.3409822659109929715130682, 0.0)
_WLK9 = (0.179262699553207355980284, 0.2839787780481211138145445,
         0.3342337398164176835835088, 0.3437620872103630724320379)
_WL5 = (49 / 90, 32 / 45)
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


def _kronrod_rule(xgk, wgk, wg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes in increasing order, their Kronrod weights and lower-rule weights.

    The lower rule's weights fill the odd positions of the half; the centre
    is a node of L5 (at position 3) but not of G10 (at position 10).
    """
    nodes = np.concatenate([-np.array(xgk[:-1]), xgk[::-1]])
    kronrod = np.concatenate([wgk[:-1], wgk[::-1]])
    half = np.zeros(len(xgk))
    half[1::2] = wg
    return nodes, kronrod, np.concatenate([half[:-1], half[::-1]])


_LOBATTO_KRONROD9 = _kronrod_rule(_XLK9, _WLK9, _WL5)
_KRONROD21 = _kronrod_rule(_XGK, _WGK, _WG)
# keyed by the nodes a part evaluates
_KRONROD = {7: _LOBATTO_KRONROD9, 21: _KRONROD21}

# nodes per batch in gauss_kronrod: the working arrays stay in cache
_CHUNK_NODES = 1 << 16


def gauss_kronrod(fn, breaks: np.ndarray, split: int, order: int = 21) -> tuple[float, float]:
    """Integral of fn over [breaks[0], breaks[-1]], with residual, in one pass.

    ``fn`` is called as fn(left, offset): ``left`` is a column of the
    pieces' left ends and ``offset`` holds each node's distance from its
    piece's left end, one row per piece, so an integrand can reduce a large
    argument once per piece; it returns the values at left + offset, in the
    shape of ``offset``.  Each piece between consecutive ``breaks`` is cut
    into ``split`` equal parts and integrated with the Gauss 10 / Kronrod 21
    pair (``order`` 21) or, with ``split`` 1 only, the Lobatto 5 / Kronrod 9
    pair without its end nodes (``order`` 7), which needs the integrand to
    vanish at every break; any other ``order`` or ``split`` raises
    ValueError.  ``breaks`` should hold every kink of the integrand.  The
    value is the Kronrod sum.  The residual is the sum over all parts of
    |K - G| or |K - L|, added without cancellation: per part it estimates
    the lower rule's error, and since K9 and K21 are exact to degrees 13 and
    31 where L5 and G10 are exact only to 7 and 19, it normally overstates
    the error of the Kronrod value.

    The pieces are integrated left to right in batches of at most about
    65 536 nodes.
    """
    if order not in _KRONROD or (order == 7 and split != 1):
        raise ValueError(f"no Gauss-Kronrod rule of {order} nodes with split {split}")
    nodes, kronrod, gauss = _KRONROD[order]
    weights = np.stack([kronrod, kronrod - gauss], axis=1)
    offsets = ((np.arange(split)[:, None] + 0.5 * (nodes + 1.0)) / split).ravel()
    per_batch = max(1, _CHUNK_NODES // offsets.size)
    total = residual = 0.0
    n_pieces = len(breaks) - 1
    for start in range(0, n_pieces, per_batch):
        stop = min(start + per_batch, n_pieces)
        left = breaks[start:stop, None]
        width = breaks[start + 1:stop + 1, None] - left
        values = fn(left, width * offsets)
        sums = (values.reshape(-1, nodes.size) @ weights).reshape(-1, split, 2)
        half = (0.5 / split) * width[:, 0]
        total += float(half @ sums[:, :, 0].sum(axis=1))
        residual += float(half @ np.abs(sums[:, :, 1]).sum(axis=1))
    return total, residual


# (nodes a part, split) of each rung a chunk of pieces climbs, in order
QUADRATURE_LADDER = ((7, 1), (21, 1), (21, 2), (21, 4), (21, 8))
# pieces per chunk, the unit that climbs: one gauss_kronrod batch on the first rung
CHUNK_PIECES = _CHUNK_NODES // QUADRATURE_LADDER[0][0]


def _refine_chunks(quadrature, chunks: Iterable[tuple[np.ndarray, Callable[[], np.ndarray]]],
                   tolerance: float) -> tuple[float, float]:
    """Climb QUADRATURE_LADDER chunk by chunk until the residuals fit the tolerance.

    ``quadrature(order, split, breaks)`` returns (value, residual) over the
    pieces between ``breaks``; the integrand must vanish at every break,
    which the first rung does not evaluate.  ``chunks`` yields each chunk
    once, in order, as its breaks and a callable that makes the same breaks
    again; consecutive chunks share their end breaks.  Every chunk is
    integrated on the first rung as it comes, and only its callable is
    kept, so the breaks of one chunk at a time are alive.
    While the residuals sum to more than the tolerance, the chunk with the
    largest residual among those below the last rung climbs one rung and
    is integrated again over its own pieces, made again: QUADPACK's
    globally adaptive scheme, with chunks in place of single intervals, so
    only the chunks where the error lies (for the interval plateaus, the
    few next to theta = 0) pay for the finer rules.  Returns (value,
    residual): the sum of the chunk values in chunk order and the summed
    residual.  Once every chunk is on the last rung and the sum still
    misses, raises NumericError carrying it.
    """
    # the bookkeeping is in plain lists: numpy's argmax alone, first called
    # here, raised the peak RSS of a generic su2-hat A-norm by 0.3 MB
    values, residuals, remake = [], [], []
    for breaks, again in chunks:
        value, residual = quadrature(*QUADRATURE_LADDER[0], breaks)
        values.append(value)
        residuals.append(residual)
        remake.append(again)
    rungs = [0] * len(values)
    last = len(QUADRATURE_LADDER) - 1
    while (residual := sum(residuals)) > tolerance:
        climbable = [i for i, rung in enumerate(rungs) if rung < last]
        if not climbable:
            raise NumericError(
                f"quadrature residual {residual:.3e} exceeds tolerance {tolerance:.3e} "
                f"with every piece split {QUADRATURE_LADDER[-1][1]}x", residual=residual)
        chunk = max(climbable, key=residuals.__getitem__)
        rungs[chunk] += 1
        values[chunk], residuals[chunk] = quadrature(*QUADRATURE_LADDER[rungs[chunk]],
                                                     remake[chunk]())
    return sum(values), residual


def _array_chunks(breaks: np.ndarray) -> Iterator[tuple[np.ndarray, Callable[[], np.ndarray]]]:
    """The chunks of a whole break array for :func:`_refine_chunks`: runs of CHUNK_PIECES."""
    for start in range(0, len(breaks) - 1, CHUNK_PIECES):
        chunk = breaks[start:start + CHUNK_PIECES + 1]
        yield chunk, lambda chunk=chunk: chunk


def _breaks(merged: np.ndarray) -> np.ndarray:
    """``merged``, a concatenation of sorted arrays, sorted in place and without repeats.

    A stable sort finds and merges the sorted runs in linear time; dropping
    adjacent repeats then gives the array np.unique would, without the
    import of numpy.ma that np.unique's first call makes.
    """
    merged.sort(kind="stable")
    return merged[np.concatenate([[True], merged[1:] != merged[:-1]])]


def _chunk_breaks(first: float, *roots: np.ndarray) -> np.ndarray:
    """The first CHUNK_PIECES + 1 of ``first``, pi and ``roots``, merged by :func:`_breaks`.

    Each array of ``roots`` is sorted and lies above ``first``.  No break of
    the chunk is missing when each holds CHUNK_PIECES zeros of its kernel or
    every zero left, or at least every zero up to the chunk's last break.
    """
    return _breaks(np.concatenate([[first, math.pi], *roots]))[:CHUNK_PIECES + 1]


def _zero_blocks(M: int) -> Iterator[np.ndarray]:
    """The zeros of S_M in blocks of _ROOT_BLOCK from bracket 1 on, each solved when drawn."""
    return (kernel_roots(M, start, min(start + _ROOT_BLOCK, M))
            for start in range(1, M, _ROOT_BLOCK))


def _interval_chunks(P: int, Q: int) -> Iterator[tuple[np.ndarray, Callable[[], np.ndarray]]]:
    """The chunks of 0, pi and the zeros of S_P and S_Q, made one at a time.

    One cursor per kernel solves its zeros once, in blocks of _ROOT_BLOCK
    from bracket 1 on, and holds those not yet below a chunk's first break.
    kernel_roots checks the order inside a block; a block whose first zero
    is not above every zero held before it raises InternalInvariantError.
    Each chunk holds the breaks of the sorted, deduplicated array of every
    break cut into runs of CHUNK_PIECES pieces.  It is kept as three
    numbers, its first break and the index of the first zero of S_P and of
    S_Q above it, and is made again from those with the range form of
    :func:`kernel_roots`, to the same bits.
    """
    kernels = (P, Q)
    cursors = [_zero_blocks(M) for M in kernels]
    held, first_zero = [np.empty(0), np.empty(0)], [0, 0]
    first = 0.0
    while first < math.pi:
        for j, cursor in enumerate(cursors):
            while held[j].size < CHUNK_PIECES and first_zero[j] + held[j].size < kernels[j] - 1:
                seam = held[j].size
                held[j] = np.concatenate([held[j], next(cursor)])
                if not held[j][seam] > (held[j][seam - 1] if seam else first):
                    raise InternalInvariantError(
                        f"kernel_roots({kernels[j]}): zero {first_zero[j] + seam + 1} "
                        "is not above the zeros before it")
        # S_M has about a share M / (P + Q) of the chunk's zeros: merge that
        # share and 64 more, or CHUNK_PIECES if a zero past the share may be missing
        roots = [zeros[:CHUNK_PIECES * M // (P + Q) + 64] for zeros, M in zip(held, kernels)]
        chunk = _chunk_breaks(first, *roots)
        if any(share.size < min(zeros.size, CHUNK_PIECES) and chunk[-1] > share[-1]
               for share, zeros in zip(roots, held)):
            roots = [zeros[:CHUNK_PIECES] for zeros in held]
            chunk = _chunk_breaks(first, *roots)
        yield chunk, functools.partial(_interval_chunk, kernels, first, tuple(first_zero))
        first = chunk[-1]
        for j, zeros in enumerate(roots):
            used = int(np.searchsorted(zeros, first, side="right"))
            held[j] = held[j][used:]
            first_zero[j] += used


def _interval_chunk(kernels: tuple[int, int], first: float,
                    first_zero: tuple[int, int]) -> np.ndarray:
    """The chunk of :func:`_interval_chunks` that starts at ``first``, made again."""
    return _chunk_breaks(first, *(kernel_roots(M, i + 1, min(i + 1 + CHUNK_PIECES, M))
                                  for M, i in zip(kernels, first_zero)))


# pi in three parts for the reduction in _half_phase_tangent: _PI_HI has 30
# significant bits and _PI_MID the next 23, so k * _PI_HI and k * _PI_MID are
# exact for every integer k < 2^23, and _PI_LO is pi - float(pi)
_PI_HI = math.ldexp(math.floor(math.ldexp(math.pi, 28)), -28)
_PI_MID = math.pi - _PI_HI
_PI_LO = 1.2246467991473532e-16


def _half_phase_tangent(a: float, left: np.ndarray, offset: Any,
                        out: np.ndarray | None = None) -> np.ndarray:
    """tan(a (left + offset) / 2), with the phase reduced once per left end.

    x = (a/2) left loses nothing to the reduction x - k pi, k = rint(x/pi):
    the parts of pi make k * _PI_HI exact, x - k * _PI_HI exact (the two
    are within a factor of two), and the rest rounds only at the size of
    the reduced phase.  So the argument carries the rounding of (a/2) left
    and of the small (a/2) offset, as the unreduced (a/2)(left + offset)
    carries its own, and the tangent is taken of a phase in [-pi/2, pi/2]
    plus (a/2) offset, where numpy's tangent is fast.  The exactness needs
    |k| < 2^23, which holds for a < 2^24 and left <= pi; the interval
    plateaus' support budget, MAX_INTERVAL_SUPPORT, keeps a below 2^22 + 1.
    The tangents are written into ``out`` when it is given.
    """
    x = (0.5 * a) * left
    k = np.rint(x * (1.0 / math.pi))
    x -= k * _PI_HI
    x -= k * _PI_MID
    x -= k * _PI_LO
    phase = np.multiply(offset, 0.5 * a, out=out)
    phase += x
    return np.tan(phase, out=phase)


def _abs_kernel_product(a_p: float, a_q: float, left: np.ndarray, offset: Any = 0.0,
                        out: np.ndarray | None = None, work: Any = (None,) * 5) -> np.ndarray:
    """4 |S_P(theta) S_Q(theta)| at theta = left + offset, for a = M + 1/2.

    With t = tan(theta/2) and u = tan(a theta/2) the half-angle formulas give
    4 sin^2(theta/2) S_M = cos(theta/2) (sin(a theta) - 2a t cos(a theta))
    = 2 cos(theta/2) h, h = (u - a t (1 - u^2)) / (1 + u^2), so
    4 |S_P S_Q| = |h_P h_Q| (1 + t^2) / t^4, taken as one fraction with one
    division.  The angle theta/2 is shared by both kernels.  Three tangents
    replace six sines and cosines, and numpy's float64 tangent is
    SIMD-vectorized on x86 where its sine and cosine are not.  The phases
    a theta / 2 reach about 1.6e6 rad at the D = 1.1 stage 5 (a = 965 604.5),
    where a tangent costs 7.9 ns against 1.5 ns on [0, 3] (numpy 2.4 on a
    Xeon core); :func:`_half_phase_tangent` reduces them once per ``left``,
    so every tangent here takes a small argument.  ``left`` may be a column
    of piece ends with one ``offset`` row per end, or any array with
    ``offset`` 0.

    The values go into ``out`` and the five intermediates (t, the two u,
    the second numerator and a t) into the arrays of ``work``, each of the
    shape of left + offset; any not given is allocated, to the same bits.
    """
    t, u_p, u_q, num_q, at = work
    t = np.add(left, offset, out=t)
    t *= 0.5
    np.tan(t, out=t)
    num, den = _tangent_fraction(a_p, t, _half_phase_tangent(a_p, left, offset, u_p), out, at)
    num_q, den_q = _tangent_fraction(a_q, t, _half_phase_tangent(a_q, left, offset, u_q),
                                     num_q, at)
    num *= num_q
    den *= den_q
    t *= t
    den *= t
    den *= t
    t += 1.0
    num *= t
    num /= den
    return np.abs(num, out=num)


def _tangent_fraction(a: float, t: np.ndarray, u: np.ndarray, num: np.ndarray | None = None,
                      at: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """h as the pair (u - a t (1 - u^2), 1 + u^2), elementwise; ``u`` becomes the second.

    The first is written into ``num``, and a t into ``at``, when they are given.
    """
    num = np.multiply(u, u, out=num)
    num -= 1.0
    num *= np.multiply(a, t, out=at)
    num += u
    u *= u
    u += 1.0
    return num, u


# pieces per block of the interval integrand: one block's workspace stays in cache
_INTEGRAND_BLOCK = 2048


def interval_product_l1(P: int, Q: int, tolerance: float) -> tuple[float, float]:
    """(2/pi) int_0^pi |S_P(theta) S_Q(theta)| / S(Q), with its residual.

    For P = k2 + m2 + 1 and Q = m2 + 1 this is the A-norm of the interval
    plateau K = {0..k2}, V = {0..m2}, as h(V) = S(Q).  The ladder of
    :func:`_refine_chunks` integrates the fused 4 |S_P S_Q| between 0, pi
    and the zeros of S_P and S_Q, where it vanishes, and scales each
    chunk's value and residual by 1/(2 pi S(Q)).  The breaks come from
    :func:`_interval_chunks` one chunk at a time, so the call holds one
    chunk and a block of zeros of each kernel, never every break.  The
    integrand runs over each gauss_kronrod batch in blocks of
    _INTEGRAND_BLOCK pieces, writing the values into the batch's array and
    the intermediates into one workspace allocated once per call, so a
    batch allocates only its values.  The memory is the same at every
    stage: at the D = 1.1 stage 5 (1 871 762 breaks) the call's tracemalloc
    peak is about 5 MiB, half of it that workspace.
    """
    a_p, a_q = P + 0.5, Q + 0.5
    scale = 0.5 / math.pi  # 2/pi for the normalisation, 1/4 for the integrand
    h = float(sum_squares(Q))
    workspace = np.empty((5, _CHUNK_NODES))

    def integrand(left: np.ndarray, offset: np.ndarray) -> np.ndarray:
        values = np.empty(offset.shape)
        for start in range(0, len(left), _INTEGRAND_BLOCK):
            rows = slice(start, start + _INTEGRAND_BLOCK)
            block = values[rows]
            _abs_kernel_product(a_p, a_q, left[rows], offset[rows], block,
                                [w[:block.size].reshape(block.shape) for w in workspace])
        return values

    def quadrature(order: int, split: int, chunk: np.ndarray) -> tuple[float, float]:
        total, residual = gauss_kronrod(integrand, chunk, split, order)
        return scale * total / h, scale * residual / h

    return _refine_chunks(quadrature, _interval_chunks(P, Q), tolerance)


# ---------------------------------------------------------------------------
# Exact products of integer U-series
# ---------------------------------------------------------------------------


def u_product(a: list[int], b: list[int]) -> np.ndarray:
    """c with (sum_n a[n] U_n)(sum_m b[m] U_m) = sum_z c[z] U_z, exact.

    a and b are nonempty lists of ints.  With x = cos theta, multiply
    both sides by 2 sin^2 theta and use U_n sin theta = sin((n+1) theta)
    and 2 sin(p theta) sin(q theta) = cos((p-q) theta) - cos((p+q) theta):

        sum_{n,m} a_n b_m (cos((n-m) theta) - cos((n+m+2) theta))
            = sum_z c_z (cos(z theta) - cos((z+2) theta)).

    Matching cos(k theta) coefficients gives e_k = c_k - c_{k-2}, where e_k
    is the sine correlation sum_{|n-m| = k} a_n b_m minus the convolution
    sum_{n+m = k-2} a_n b_m.  The two-term recurrence c_k = e_k + c_{k-2},
    run on each parity from c_{-1} = c_{-2} = 0, is a cumulative sum.  The
    product has degree N + M (N, M the top indices), so c_{N+M+1} and
    c_{N+M+2} must vanish; that is asserted.

    Arithmetic is int64 when 2 sum|a| sum|b| < 2^63 (each sum taken as at
    least 1, so that a and b themselves fit), Python ints otherwise.
    Every correlation or convolution entry, and every c_z (a sum over the
    Clebsch-Gordan pairs of z), is at most sum|a| sum|b| in absolute value,
    so e_k and every partial sum are at most twice that: no int64 overflow.
    """
    N, M = len(a) - 1, len(b) - 1
    bound = 2 * max(sum(map(abs, a)), 1) * max(sum(map(abs, b)), 1)
    dtype = np.int64 if bound < INT64_LIMIT else object
    A = np.array(a, dtype=dtype)
    B = np.array(b, dtype=dtype)
    lags = np.convolve(A, B[::-1])  # lags[M + k] = sum_{n - m = k} a_n b_m
    e = np.zeros(N + M + 3, dtype=dtype)
    e[:N + 1] += lags[M:]
    e[1:M + 1] += lags[:M][::-1]
    e[2:] -= np.convolve(A, B)
    c = np.empty_like(e)
    c[0::2] = np.cumsum(e[0::2])
    c[1::2] = np.cumsum(e[1::2])
    if c[N + M + 1] or c[N + M + 2]:
        raise InternalInvariantError("U-series product: the tail past degree N + M does not vanish")
    return c[:N + M + 1]


# ---------------------------------------------------------------------------
# Generic Chebyshev-U series: conversion and zeros
# ---------------------------------------------------------------------------


def u_to_chebyshev_t(coeffs: np.ndarray) -> np.ndarray:
    """Convert a U-basis coefficient vector to the Chebyshev T basis.

    U_n = 2 (T_n + T_{n-2} + ...), ending in 2 T_1 for odd n and in T_0
    (once, not twice) for even n.  So t_k = 2 sum_{n >= k, n = k mod 2} c_n,
    a reversed cumulative sum on each parity, and t_0 is half of that sum.
    """
    c = np.asarray(coeffs, dtype=float)
    t = np.empty_like(c)
    for parity in (0, 1):
        t[parity::2] = 2.0 * np.cumsum(c[parity::2][::-1])[::-1]
    t[:1] *= 0.5
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


def indicator_series(labels: Collection[int]) -> list[int]:
    """F_A = sum_{n in A} (n + 1) U_n, the U-series of the indicator of A = ``labels``.

    ``labels`` is a nonempty set of su2-hat labels; the coefficients run up to max A.
    """
    return [(n + 1) * (n in labels) for n in range(max(labels) + 1)]


def indicator_series_zeros(labels: Collection[int]) -> np.ndarray:
    """The zeros in (0, pi) of :func:`indicator_series` (``labels``), F_A.

    For A = {0..M-1}, F_A = S_M / sin theta, whose zeros are
    :func:`kernel_roots` (M), solved and checked bracket by bracket; any
    other A takes the companion zeros of F_A alone.
    """
    if len(labels) == max(labels) + 1:
        return kernel_roots(len(labels))
    return u_series_roots_theta(indicator_series(labels))


def u_series_l1(coeffs: np.ndarray, tolerance: float,
                zeros: np.ndarray | None = None) -> tuple[float, float]:
    """(2/pi) int_0^pi |sum_n coeffs[n] U_n(cos theta)| sin^2 theta, with its residual.

    The ladder of :func:`_refine_chunks` runs between 0, pi and the zeros of
    the series, where the integrand vanishes; the series is summed in the T
    basis.  ``zeros`` must hold every zero of the series in (0, pi) and
    only zeros of it, in any order and with repeats; by default they are
    the eigenvalues of the companion matrix of the whole series
    (:func:`u_series_roots_theta`).
    """
    t_coeffs = u_to_chebyshev_t(coeffs)

    def integrand(left: np.ndarray, offset: np.ndarray) -> np.ndarray:
        theta = left + offset
        s = np.sin(theta)
        return (2.0 / math.pi) * np.abs(npcheb.chebval(np.cos(theta), t_coeffs)) * s * s

    if zeros is None:
        zeros = u_series_roots_theta(coeffs)
    breaks = _breaks(np.concatenate([[0.0, math.pi], zeros]))
    return _refine_chunks(
        lambda order, split, chunk: gauss_kronrod(integrand, chunk, split, order),
        _array_chunks(breaks), tolerance)
