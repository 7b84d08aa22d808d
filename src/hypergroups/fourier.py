"""Fourier-space norms and plateau functions on duals of compact groups.

The Fourier space A(H) of a dual hypergroup is isometric to the center of
the group algebra, so its norm is computed as the L1 norm of the central
function sum_pi v(pi) d_pi chi_pi: an exact conjugacy-class sum for finite
duals and their products (class values from the factor tables, class sizes
and group order the products of the factors'), a Weyl-measure integral on
the maximal torus for the dual of SU(2).

Plateau functions u = (1/h(V)) 1_{K*V} *_h ~1_V are nonnegative, equal 1 on
K, are supported in K*V*~V, and carry the certified norm bound
sqrt(h(K*V)/h(V)).  The first three properties and the exact value of the
bound's square are verified in rational arithmetic at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Collection

import numpy as np

from . import su2num
from .core import (
    MAX_INTERVAL_SUPPORT,
    CapacityError,
    FiniteFunction,
    Hypergroup,
    InternalInvariantError,
    Label,
    LabelDomainError,
    UsageError,
    convolve_h,
    label_count,
    label_set,
    real,
    shown,
    support_product,
)
from .duals import (
    ExactComplex,
    Su2Dual,
    _class_sizes,
    _factor_tables,
    central_function,
    check_u_series_degree,
)

_SU2 = Su2Dual()  # checks the labels of a bare function on su2-hat

@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy target for torus integrals: the residual must not exceed it."""

    tolerance: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(real(self.tolerance, "quadrature tolerance"))
                and self.tolerance > 0):
            raise UsageError(
                f"quadrature tolerance must be finite and positive, got {self.tolerance}")


DEFAULT_QUADRATURE = QuadratureConfig()


class QuadratureValue(float):
    """A quadrature A-norm, carrying the residual it was accepted with.

    It is the float value wherever a float is used (arithmetic, comparison,
    formatting and JSON), so the A-norm entry points keep their return type,
    and :func:`a_norm_residual` reads the residual back.
    """

    __slots__ = ("residual",)

    def __new__(cls, value: float, residual: float):
        self = super().__new__(cls, value)
        self.residual = residual
        return self

    def __reduce__(self):
        return type(self), (float(self), self.residual)


def a_norm_residual(value: Any) -> float:
    """The quadrature residual of an A-norm value; 0 for an exact class sum."""
    return value.residual if isinstance(value, QuadratureValue) else 0.0


# ---------------------------------------------------------------------------
# Weighted lp norms
# ---------------------------------------------------------------------------


def lp_h_power_sum(H: Hypergroup, f: FiniteFunction, p: int) -> Fraction:
    """Exact sum of h(x) |f(x)|^p for integer p >= 1."""
    if not (isinstance(p, int) and p >= 1):
        raise UsageError(f"integer exponent >= 1 required, got {p}")
    return sum((H.haar(x) * abs(v) ** p for x, v in f.items()), Fraction(0))


# terms |f(x)|^p within 2^(+-_UNSCALED_LOG2) leave room in float range for h and the sum
_UNSCALED_LOG2 = 900
# the exact power sum holds integers of about p times a value's bits; past this, floats
_EXACT_POWER_BITS = 1 << 20


def lp_h_norm(H: Hypergroup, f: FiniteFunction, p: Any) -> Any:
    """The norm of f in lp(H, h): (sum h(x) |f(x)|^p)^(1/p), sup norm at p = inf.

    Exact Fraction for p = 1 and p = inf, float otherwise.  On a dual, f
    holds the Fourier coefficients of a central function, and for p in
    [1, 2] this is its central Segal norm (sum_pi d_pi^2 |f(pi)|^p)^(1/p).
    For integer p the power sum is exact, then rounded, unless its integers
    would pass _EXACT_POWER_BITS.  Where some |f(x)|^p would leave float
    range, the float sum is scaled: M (sum h(x) (|f(x)|/M)^p)^(1/p),
    M = max |f|, whose terms are at most h(x).
    """
    values = [abs(v) for _, v in f.items()]
    if real(p, "p") == math.inf:
        return max(values, default=Fraction(0))
    if p < 1:
        raise UsageError(f"p must be at least 1, got {p}")
    if p == 1:
        return lp_h_power_sum(H, f, 1)
    if not values:
        return 0.0
    scale = max(values)
    spread = max(abs(math.log2(q.numerator) - math.log2(q.denominator))
                 for q in (min(values), scale))
    if float(p) * spread <= _UNSCALED_LOG2:
        bits = max(q.numerator.bit_length() + q.denominator.bit_length() for q in values)
        if float(p).is_integer() and p * bits <= _EXACT_POWER_BITS:
            total = lp_h_power_sum(H, f, int(p))
            try:
                return float(total) ** (1.0 / float(p))
            except OverflowError:
                return _scaled_root(Fraction(1), *_binary(total), int(p))
        scale = Fraction(1)
    p = float(p)
    try:
        total = sum(float(H.haar(x)) * float(abs(v) / scale) ** p for x, v in f.items())
        norm = float(scale) * total ** (1.0 / p)
        if math.isfinite(norm):
            return norm
    except OverflowError:
        pass
    # some h(x), a product or the norm is past float range: sum over the top power of two
    haar = [_binary(H.haar(x)) for x, _ in f.items()]
    top = max(e for _, e in haar)
    total = sum(math.ldexp(m * float(abs(v) / scale) ** p, e - top)
                for (m, e), (_, v) in zip(haar, f.items()))
    return _scaled_root(scale, total, top, p)


def _binary(q: Fraction) -> tuple[float, int]:
    """(m, e) with q = m 2^e and 1/2 <= m < 2 for q > 0, m correctly rounded."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if e >= 0:
        return float(Fraction(q.numerator, q.denominator << e)), e
    return float(Fraction(q.numerator << -e, q.denominator)), e


def _scaled_root(scale: Fraction, mantissa: float, exponent: int, p: float) -> float:
    """scale (mantissa 2^exponent)^(1/p) by powers of two; CapacityError past float range."""
    m, e = _binary(scale)
    k, r = divmod(exponent, p)  # 0 <= r < p
    try:
        # one rounding in the root where 2^r is a float, so for every integer p up to 1000
        root = (mantissa * 2.0 ** r) ** (1.0 / p) if r < 1000 else (
            mantissa ** (1.0 / p) * 2.0 ** (r / p))
        return math.ldexp(m * root, e + int(k))
    except OverflowError:
        raise CapacityError(f"the lp norm at p = {p:g} is past float range") from None


# ---------------------------------------------------------------------------
# A-norms
# ---------------------------------------------------------------------------


def _modulus(z: ExactComplex) -> Fraction | float:
    """|z|: a Fraction when the exact |z|^2 is a rational square, else its float square root."""
    square = z.abs_squared()
    q = square.rational()
    if q is None:
        return math.sqrt(square.as_complex().real)
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(num, den) if q == Fraction(num * num, den * den) else math.sqrt(q)


def a_norm_exact_finite(dual: Hypergroup, v: FiniteFunction) -> Any:
    """A-norm of v over a finite dual: the L1 class sum of its central function.

    (1/|G|) sum over classes of |c| * |sum_pi v(pi) d_pi chi_pi(c)|, exact
    when every exact |z|^2 is a rational square, else a float sum whose
    irrational moduli are the float square roots of the exact |z|^2.  On a
    product, |c| and |G| are the products of the factors' class sizes and
    group orders.
    """
    moduli = [_modulus(z) for z in central_function(dual, v)]
    if not all(isinstance(m, Fraction) for m in moduli):
        moduli = [float(m) for m in moduli]
    tables = _factor_tables(dual)
    return (sum(size * m for size, m in zip(_class_sizes(tables), moduli))
            / math.prod(t.group_order for t in tables))


def a_norm_su2(v: FiniteFunction, config: QuadratureConfig | None = None,
               zeros: np.ndarray | None = None) -> float:
    """A-norm of v over the dual of SU(2), one :func:`su2num.u_series_l1` call.

    The series is v's central function sum_n float(v(n)) (n+1) U_n; ``zeros``,
    if given, are its zeros in (0, pi), else the companion matrix of the whole
    series finds them.  The value returned carries the residual the config
    tolerance accepted.  Labels and the degree budget are checked first.
    """
    config = config or DEFAULT_QUADRATURE
    _SU2.check_labels(v.support)
    if not v:
        return 0.0
    check_u_series_degree(max(v.support))
    coeffs = np.zeros(max(v.support) + 1)
    coeffs[list(v.support)] = [float(q) * (n + 1) for n, q in v.items()]
    return QuadratureValue(*su2num.u_series_l1(coeffs, config.tolerance, zeros))


def a_norm(H: Hypergroup, v: FiniteFunction, config: QuadratureConfig | None = None) -> Any:
    """A-norm of v on the dual H: quadrature on su2-hat, the class sum on finite duals."""
    if isinstance(H, Su2Dual):
        return a_norm_su2(v, config)
    return a_norm_exact_finite(H, v)


# ---------------------------------------------------------------------------
# Plateau (bump) functions
# ---------------------------------------------------------------------------


class Plateau:
    """A plateau function u = (1/h(V)) 1_{K*V} *_h ~1_V with its ratio h(K*V)/h(V).

    One type, built by :func:`bump` in one of two representations:
    :class:`Su2IntervalBump` keeps the ends of spin intervals K and V and
    evaluates a closed form, :class:`BumpFunction` stores a label->value
    dictionary.  Both give one accessor per quantity: ``K``, ``V``, ``value``,
    ``support`` (where u != 0), ``function``, ``segal_power_sum`` (exact),
    ``segal_norm`` (float) and ``a_norm``; the rest is derived here once.
    """

    ratio: Fraction

    @property
    def a_norm_bound(self) -> float:
        return math.sqrt(float(self.ratio))

    def first_not_one(self, labels: Collection[Label]) -> Label | None:
        """The first of ``labels`` where u != 1, or None when u = 1 on all."""
        for x in labels:
            if self.value(x) != 1:
                return x
        return None

    def is_one_on(self, labels: Collection[Label]) -> bool:
        return self.first_not_one(labels) is None

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} on {self.hypergroup.name}: |K|={label_count(self.K)}, "
                f"|V|={label_count(self.V)}, ratio={shown(self.ratio, str)}>")


class BumpFunction(Plateau):
    """Plateau stored as a label->value function, with its certified ratio.

    Exactly verified by :func:`bump`: u >= 0 everywhere, u = 1 on K, the
    support sits inside K*V*~V, and the stored ratio is h(K*V)/h(V).  The
    A-norm bound is sqrt(ratio); measured A-norms are checked against it in
    the test suite, since quadrature values are floats.  ``grown`` is K*V.
    On su2-hat, u's U-series is
    F_{K*V} F_V / h(V) with F_A = sum_{n in A} (n+1) U_n, the factoring
    behind the bound, and the A-norm takes its breaks from the two factors'
    zeros (:func:`su2num.indicator_series_zeros`) once
    :meth:`_su2_series_zeros` has proven that factoring exactly.
    """

    def __init__(self, hypergroup: Hypergroup, K: Collection[Label], V: Collection[Label],
                 ratio: Fraction, function: FiniteFunction, grown: frozenset):
        self.hypergroup = hypergroup
        self.K = K
        self.V = V
        self.ratio = ratio
        self.function = function
        self.grown = grown

    @property
    def support(self) -> tuple[Label, ...]:
        return self.function.support

    def value(self, x: Label) -> Fraction:
        return self.function.value(x)

    def segal_power_sum(self, p: int) -> Fraction:
        return lp_h_power_sum(self.hypergroup, self.function, p)

    def segal_norm(self, p: Any) -> float:
        return float(lp_h_norm(self.hypergroup, self.function, p))

    def a_norm(self, config: QuadratureConfig | None = None) -> Any:
        if not isinstance(self.hypergroup, Su2Dual):
            return a_norm(self.hypergroup, self.function, config)
        return a_norm_su2(self.function, config, self._su2_series_zeros())

    def _su2_series_zeros(self) -> np.ndarray:
        """The zeros in (0, pi) of u's U-series on su2-hat, from its two factors.

        First proves h(V) a = L c as integer lists, with (a, L) u's :func:`su2num.u_series`
        and c the product of F_{K*V} and F_V (~V = V on su2-hat), so that every
        zero of a factor is a zero of u's series and no other zero exists; a
        mismatch raises InternalInvariantError.  The degree budget comes first.
        """
        factors = (self.grown, self.V)
        check_u_series_degree(max(self.function.support, default=0))
        a, scale = su2num.u_series(self.function.items())
        c = su2num.u_product(*map(su2num.indicator_series, factors)).tolist()
        h_v = self.hypergroup._haar_sum(self.V)
        if [h_v * x for x in a] != [scale * x for x in c]:
            raise InternalInvariantError(
                "plateau: h(V) u is not the U-series product of F_{K*V} and F_V")
        return np.concatenate([su2num.indicator_series_zeros(A) for A in factors])


def bump(H: Hypergroup, K: Collection[Label], V: Collection[Label]) -> Plateau:
    """The plateau function of (K, V), exactly verified; the one constructor of a Plateau.

    K and V are read as sets once.  On su2-hat with K = {0..k2} and
    V = {0..m2} it is ``Su2IntervalBump(H, k2, m2)``, which proves its
    closed form; any other (K, V) gets a :class:`BumpFunction`, checked here.
    """
    if not K or not V:
        raise UsageError("K and V must be nonempty")
    if isinstance(H, Su2Dual):
        k2, m2 = su2num.as_interval(K), su2num.as_interval(V)
        if k2 is not None and m2 is not None:
            return Su2IntervalBump(H, k2, m2)
    grown = support_product(H, K, V)  # checks every label of K and V
    K, V = label_set(K), label_set(V)
    h_v = H._haar_sum(V)
    tilde_v = frozenset(H.involution(x) for x in V)
    u = convolve_h(H, FiniteFunction.indicator(grown), FiniteFunction.indicator(tilde_v))
    u = u.scale(Fraction(1, 1) / h_v)
    ratio = Fraction(H._haar_sum(grown), h_v)

    for x, value in u.items():
        if value < 0:
            raise InternalInvariantError(
                f"plateau function negative at {H.label_str(x)}: {value}")
    for x in K:
        if u.value(x) != 1:
            raise InternalInvariantError(
                f"plateau function is {u.value(x)} != 1 at {H.label_str(x)}")
    allowed = support_product(H, grown, tilde_v)
    stray = set(u.support) - set(allowed)
    if stray:
        raise InternalInvariantError(
            f"plateau support leaks outside K*V*~V at {sorted(stray)[:3]}")
    return BumpFunction(H, K, V, ratio, u, grown)


class Su2IntervalBump(Plateau):
    """Plateau function for spin intervals K = {0..k2}, V = {0..m2} on su2-hat.

    u(z) = c_{z+1} / (h(V) (z+1)), with the integer numerators c_w given in
    closed form by :func:`su2num.plateau_numerator`, so the state is
    (k2, m2) whatever the stage size; :func:`bump` returns it for spin
    intervals.  The constructor re-proves the closed form against its
    recurrence at O(1) cost, so every instance has the exact guarantees of
    the dictionary plateau: u >= 0, u = 1 on the interval K (c_w = h(V) w
    there), support exactly the interval K*V*~V.
    """

    def __init__(self, hypergroup: Su2Dual, k2: int, m2: int):
        if not (hypergroup._is_label(k2) and hypergroup._is_label(m2)):
            raise LabelDomainError(f"interval ends {shown(k2)} and {shown(m2)} must be su2-hat "
                                   f"labels, nonnegative ints")
        self.hypergroup = hypergroup
        self.k2 = k2
        self.m2 = m2
        self._h_v = su2num.sum_squares(m2 + 1)
        self.ratio = su2num.interval_ratio_n2(k2, m2)
        su2num.check_plateau_recurrence(k2, m2, self.numerator)

    def numerator(self, w: int) -> int:
        """c_w, the U_{w-1} coefficient of h(V) u; h(V) w up to w = k2 + 1, from the cache."""
        if w <= self.k2 + 1:
            return self._h_v * w
        return su2num.plateau_numerator(self.k2, self.m2, w)

    @property
    def K(self) -> range:
        return range(self.k2 + 1)

    @property
    def V(self) -> range:
        return range(self.m2 + 1)

    @property
    def support(self) -> range:
        return range(self.k2 + 2 * self.m2 + 1)

    def value(self, z: int) -> Fraction:
        if z < 0:
            return Fraction(0)
        return Fraction(self.numerator(z + 1), self._h_v * (z + 1))

    def first_not_one(self, labels: Collection[int]) -> int | None:
        # u(z) = 1 exactly when c_{z+1} = h(V) (z+1): integer comparisons only
        numerator, h_v = self.numerator, self._h_v
        for z in labels:
            if not (0 <= z and numerator(z + 1) == h_v * (z + 1)):
                return z
        return None

    def check_support_budget(self, work: str) -> None:
        """CapacityError before ``work`` allocates one entry per support label."""
        size = self.k2 + 2 * self.m2 + 1
        if size > MAX_INTERVAL_SUPPORT:
            raise CapacityError(f"the plateau support has {shown(size)} labels, more than the "
                                f"{MAX_INTERVAL_SUPPORT} an interval {work} may have")

    @property
    def function(self) -> FiniteFunction:
        self.check_support_budget("label->value function")
        return FiniteFunction({z: self.value(z) for z in self.support})

    def segal_power_sum(self, p: int) -> Fraction:
        """The exact sum of h(z) u(z)^p, for p = 1 or 2, the exponents a Segal norm uses."""
        if not (isinstance(p, int) and p in (1, 2)):
            raise UsageError(f"exact power sums of an interval plateau need p = 1 or 2, got {p}")
        # sum_z h(z) u(z)^p = sum_w w^(2-p) c_w^p / h(V)^p over 1 <= w < T
        k2, top, h_p = self.k2, self.k2 + 2 * self.m2 + 2, self._h_v ** p
        # c_w = h(V) w up to w = k2 + 1; past it w^(2-p) c_w^p is a
        # polynomial of degree 3p + 2 on each parity class of w
        total = Fraction(h_p * su2num.sum_squares(k2 + 1))
        for first in (k2 + 2, k2 + 3):
            total += su2num.poly_sum(
                lambda i: (first + 2 * i) ** (2 - p) * self.numerator(first + 2 * i) ** p,
                max(0, (top - first + 1) // 2), 3 * p + 2)
        return total / h_p

    def segal_norm(self, p: Any) -> float:
        # u = 1 up to w = k2 + 1, then the factored quartics per parity class
        self.check_support_budget("float Segal norm")
        p = float(p)
        k2, top, h_v = self.k2, self.k2 + 2 * self.m2 + 2, float(self._h_v)
        total = float(su2num.sum_squares(k2 + 1))
        for first in (k2 + 2, k2 + 3):
            w = np.arange(first, top, 2, dtype=float)
            c = su2num.plateau_quartic48(k2, float(top + 1), w, (first - k2) % 2 == 1) / 48.0
            total += float(np.sum(w * w * (c / (h_v * w)) ** p))
        return total ** (1.0 / p)

    def a_norm(self, config: QuadratureConfig | None = None) -> float:
        """The A-norm, one :func:`su2num.interval_product_l1` call, carrying its residual."""
        config = config or DEFAULT_QUADRATURE
        self.check_support_budget("A-norm quadrature")
        return QuadratureValue(*su2num.interval_product_l1(
            self.k2 + self.m2 + 1, self.m2 + 1, config.tolerance))
