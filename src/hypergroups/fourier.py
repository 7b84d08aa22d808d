"""Fourier-space norms and plateau functions on duals of compact groups.

The Fourier space A(H) of a dual hypergroup is isometric to the center of
the group algebra, so its norm is computed as the L1 norm of the central
function sum_pi v(pi) d_pi chi_pi: an exact conjugacy-class sum for finite
duals, a Weyl-measure integral on the maximal torus for the dual of SU(2).

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
    EXACT,
    FiniteFunction,
    Hypergroup,
    InternalInvariantError,
    Label,
    NumericError,
    UsageError,
    convolve_h,
    involute,
    support_product,
)
from .duals import (
    CharacterTable,
    ExactComplex,
    ProductDual,
    Su2Dual,
    central_function,
    dual_character_table,
    flat_irrep_index,
)

VALID_SCHEMES = ("legendre", "simpson")


@dataclass(frozen=True)
class QuadratureConfig:
    """Node budget, accuracy target and scheme for torus integrals."""

    nodes: int = 2048
    tolerance: float = 1e-9
    scheme: str = "legendre"

    def __post_init__(self):
        if self.tolerance <= 0:
            raise UsageError("quadrature tolerance must be positive")
        if self.nodes < 8:
            raise UsageError("quadrature needs at least 8 nodes")
        if self.scheme not in VALID_SCHEMES:
            raise UsageError(f"unknown quadrature scheme {self.scheme!r}")


DEFAULT_QUADRATURE = QuadratureConfig()


# ---------------------------------------------------------------------------
# Weighted lp norms
# ---------------------------------------------------------------------------


def lp_h_power_sum(H: Hypergroup, f: FiniteFunction, p: int) -> Fraction:
    """Exact sum of h(x) |f(x)|^p for integer p >= 1 on the exact lane."""
    if f.lane != EXACT:
        raise UsageError("exact power sums require the exact lane")
    if not (isinstance(p, int) and p >= 1):
        raise UsageError(f"integer exponent >= 1 required, got {p}")
    return sum((H.haar(x) * abs(v) ** p for x, v in f.items()), Fraction(0))


def lp_h_norm(H: Hypergroup, f: FiniteFunction, p: Any) -> Any:
    """The norm of f in lp(H, h): (sum h(x) |f(x)|^p)^(1/p), sup norm at p = inf.

    Exact Fraction for p = 1 (and p = inf) on the exact lane, float otherwise.
    """
    if p == math.inf:
        values = [abs(v) for _, v in f.items()]
        if not values:
            return Fraction(0) if f.lane == EXACT else 0.0
        return max(values)
    if p < 1:
        raise UsageError(f"p must be at least 1, got {p}")
    if f.lane == EXACT and p == 1:
        return lp_h_power_sum(H, f, 1)
    if f.lane == EXACT and float(p).is_integer():
        return float(lp_h_power_sum(H, f, int(p))) ** (1.0 / float(p))
    p = float(p)
    total = sum(float(H.haar(x)) * abs(float(v)) ** p for x, v in f.items())
    return total ** (1.0 / p)


def segal_cp_norm_central(H: Hypergroup, v: FiniteFunction, p: Any) -> Any:
    """Central Schatten-type Segal norm: (sum_pi d_pi (|v(pi)|^p d_pi))^(1/p).

    For a central function with Fourier coefficients v this is exactly the
    lp(H, h) norm; the Segal property holds for p in [1, 2], so other
    exponents are rejected.
    """
    if not (1 <= p <= 2):
        raise UsageError(f"the central Segal norm requires p in [1, 2], got {p}")
    return lp_h_norm(H, v, p)


# ---------------------------------------------------------------------------
# A-norms
# ---------------------------------------------------------------------------


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _exact_abs(z: ExactComplex) -> Fraction | None:
    if z.im == 0:
        return abs(z.re)
    if z.re == 0:
        return abs(z.im)
    return _rational_sqrt(z.abs_squared())


def _flat_irrep_function(dual: Any, v: FiniteFunction) -> tuple[CharacterTable, FiniteFunction]:
    """Resolve (table, v-with-flat-row-indices) for table-backed duals."""
    if isinstance(dual, CharacterTable):
        return dual, v
    table = dual_character_table(dual)
    if table is None:
        raise UsageError(f"no character table behind {dual!r}")
    if isinstance(dual, ProductDual):
        v = FiniteFunction({flat_irrep_index(dual, x): val for x, val in v.items()},
                           v.lane)
    return table, v


def a_norm_exact_finite(table_or_dual: Any, v: FiniteFunction) -> Any:
    """A-norm of v over a finite dual: the L1 class sum of its central function.

    (1/|G|) sum over classes of |c| * |sum_pi v(pi) d_pi chi_pi(c)|; exact
    whenever the table and v are exact and every class value has a rational
    absolute value, otherwise a float.
    """
    table, flat_v = _flat_irrep_function(table_or_dual, v)
    for i in flat_v.support:
        if not (isinstance(i, int) and 0 <= i < table.n_irreps):
            raise UsageError(f"{i!r} is not an irrep index of {table.name}")
    handle = central_function(table, flat_v)
    values = handle.values()
    if table.lane == EXACT and flat_v.lane == EXACT:
        moduli = [_exact_abs(z) for z in values]
        if all(m is not None for m in moduli):
            total = sum((Fraction(size) * m for size, m in zip(table.class_sizes, moduli)),
                        Fraction(0))
            return total / table.group_order
        values = [z.as_complex() for z in values]
    total = sum(size * abs(complex(z)) for size, z in zip(table.class_sizes, values))
    return total / table.group_order


def a_norm_su2(v: FiniteFunction, config: QuadratureConfig | None = None) -> float:
    """A-norm of v over the dual of SU(2), by Weyl-measure quadrature.

    Integrates (2/pi) |sum_n v(n) (n+1) U_n(cos theta)| sin^2 theta over
    (0, pi).  The integrand is split at the zeros of the series so each
    piece is smooth; the residual estimate must meet the config tolerance.
    """
    config = config or DEFAULT_QUADRATURE
    if not v:
        return 0.0
    for n in v.support:
        if not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
            raise UsageError(f"{n!r} is not a label of su2-hat")
    top = max(v.support)
    coeffs = np.zeros(top + 1)
    for n, value in v.items():
        coeffs[n] = float(value) * (n + 1)

    def integrand(theta: np.ndarray) -> np.ndarray:
        s = np.sin(theta)
        return (2.0 / math.pi) * np.abs(su2num.u_series_eval(coeffs, np.cos(theta))) * s * s

    if config.scheme == "simpson":
        def scalar(theta: float) -> float:
            return float(integrand(np.array([theta]))[0])

        try:
            value, residual = su2num.adaptive_simpson(
                scalar, 0.0, math.pi, config.tolerance, max_intervals=config.nodes * 64)
        except RuntimeError as exc:
            raise NumericError(str(exc)) from exc
        if residual > config.tolerance:
            raise NumericError(
                f"adaptive Simpson residual {residual:.3e} exceeds tolerance",
                residual=residual)
        return value

    roots = su2num.u_series_roots_theta(coeffs)
    breaks = np.unique(np.concatenate([[0.0, math.pi], roots]))
    pieces = max(1, len(breaks) - 1)
    order = min(max(8, config.nodes // pieces), 256)
    while True:
        coarse = su2num.piecewise_gauss(integrand, breaks, order)
        fine = su2num.piecewise_gauss(integrand, breaks, 2 * order)
        residual = abs(fine - coarse)
        if residual <= config.tolerance:
            return fine
        if order >= 512:
            raise NumericError(
                f"quadrature residual {residual:.3e} exceeds tolerance "
                f"{config.tolerance:.3e} at order {order}", residual=residual)
        order *= 2


# ---------------------------------------------------------------------------
# Plateau (bump) functions
# ---------------------------------------------------------------------------


class BumpFunction:
    """u = (1/h(V)) 1_{K*V} *_h ~1_V with its certified norm-bound data.

    Exactly verified at construction: u >= 0 everywhere, u = 1 on K, the
    support sits inside K*V*~V, and the stored ratio is h(K*V)/h(V).  The
    A-norm bound is sqrt(ratio); measured A-norms are checked against it in
    the test suite, since quadrature values are floats.
    """

    def __init__(self, hypergroup: Hypergroup, K: frozenset, V: frozenset,
                 ratio: Fraction, function: FiniteFunction):
        self.hypergroup = hypergroup
        self.K = K
        self.V = V
        self.ratio = ratio
        self.function = function

    @property
    def a_norm_bound(self) -> float:
        return math.sqrt(float(self.ratio))

    @property
    def support(self) -> tuple[Label, ...]:
        return self.function.support

    def value(self, x: Label) -> Fraction:
        return self.function.value(x)

    def as_finite_function(self) -> FiniteFunction:
        return self.function

    def is_one_on(self, labels: Collection[Label]) -> bool:
        return all(self.function.value(x) == 1 for x in labels)

    def l1_h(self) -> Fraction:
        return lp_h_power_sum(self.hypergroup, self.function, 1)

    def segal_power_sum(self, p: int) -> Fraction:
        return lp_h_power_sum(self.hypergroup, self.function, p)

    def segal_norm(self, p: Any) -> float:
        return float(lp_h_norm(self.hypergroup, self.function, p))

    def absorbed_by(self, other: "BumpFunction") -> bool:
        """Whether the pointwise product with `other` reproduces this function."""
        mine = self.as_finite_function()
        return mine * other.as_finite_function() == mine

    def a_norm(self, config: QuadratureConfig | None = None) -> Any:
        H = self.hypergroup
        if isinstance(H, Su2Dual):
            return a_norm_su2(self.function, config)
        table = dual_character_table(H)
        if table is not None:
            return a_norm_exact_finite(H, self.function)
        raise UsageError(f"no A-norm evaluator for {H!r}")

    def __repr__(self) -> str:
        return (f"<BumpFunction on {self.hypergroup.name}: |K|={len(self.K)}, "
                f"|V|={len(self.V)}, ratio={self.ratio}>")


def bump(H: Hypergroup, K: Collection[Label], V: Collection[Label]) -> BumpFunction:
    """Construct and exactly verify the plateau function for (K, V)."""
    if not K or not V:
        raise UsageError("K and V must be nonempty")
    for x in K:
        H.check_label(x)
    for x in V:
        H.check_label(x)
    h_v = H.haar_sum(V)
    grown = support_product(H, K, V)
    u = convolve_h(H, FiniteFunction.indicator(grown),
                   involute(H, FiniteFunction.indicator(V)))
    u = u.scale(Fraction(1, 1) / h_v)
    ratio = H.haar_sum(grown) / h_v

    for x, value in u.items():
        if value < 0:
            raise InternalInvariantError(
                f"plateau function negative at {H.label_str(x)}: {value}")
    for x in K:
        if u.value(x) != 1:
            raise InternalInvariantError(
                f"plateau function is {u.value(x)} != 1 at {H.label_str(x)}")
    tilde_v = frozenset(H.involution(x) for x in V)
    allowed = support_product(H, grown, tilde_v)
    stray = set(u.support) - set(allowed)
    if stray:
        raise InternalInvariantError(
            f"plateau support leaks outside K*V*~V at {sorted(stray)[:3]}")
    return BumpFunction(H, frozenset(K), frozenset(V), ratio, u)


class Su2IntervalBump:
    """Plateau function for spin intervals on the dual of SU(2).

    Holds the exact integer numerators of u(z) = c_{z+1} / (h(V) (z+1))
    instead of a label->value dictionary, which keeps stage sizes in the
    millions tractable.  Same exact guarantees as :func:`bump`: u >= 0,
    u = 1 on the interval K, support exactly the interval K*V*~V.
    """

    def __init__(self, hypergroup: Su2Dual, k2: int, m2: int,
                 numerators: list[int], h_v: int):
        self.hypergroup = hypergroup
        self.k2 = k2
        self.m2 = m2
        self._c = numerators
        self._h_v = h_v
        self.ratio = su2num.interval_ratio_n2(k2, m2)

    @classmethod
    def build(cls, H: Su2Dual, k2: int, m2: int) -> "Su2IntervalBump":
        if k2 < 0 or m2 < 0:
            raise UsageError("interval endpoints must be nonnegative")
        p_dim = k2 + m2 + 1
        q_dim = m2 + 1
        c = su2num.linearized_interval_product(p_dim, q_dim)
        h_v = su2num.interval_haar_n2(m2)
        for w in range(1, k2 + 2):
            if c[w] != h_v * w:
                raise InternalInvariantError(
                    f"interval plateau is not 1 at label {w - 1}")
        return cls(H, k2, m2, c, h_v)

    @property
    def K(self) -> range:
        return range(self.k2 + 1)

    @property
    def V(self) -> range:
        return range(self.m2 + 1)

    @property
    def support(self) -> range:
        return range(self.k2 + 2 * self.m2 + 1)

    @property
    def a_norm_bound(self) -> float:
        return math.sqrt(float(self.ratio))

    def value(self, z: int) -> Fraction:
        if 0 <= z < len(self._c) - 1:
            return Fraction(self._c[z + 1], self._h_v * (z + 1))
        return Fraction(0)

    def as_finite_function(self) -> FiniteFunction:
        return FiniteFunction({z: self.value(z) for z in self.support})

    def is_one_on(self, labels: Collection[int]) -> bool:
        return all(self.value(z) == 1 for z in labels)

    def l1_h(self) -> Fraction:
        total = sum(w * cw for w, cw in enumerate(self._c))
        return Fraction(total, self._h_v)

    def segal_power_sum(self, p: int) -> Fraction:
        if not (isinstance(p, int) and p >= 1):
            raise UsageError(f"integer exponent >= 1 required, got {p}")
        # sum_z h(z) u(z)^p = sum_w w^(2-p) c_w^p / h(V)^p
        if p == 1:
            return self.l1_h()
        if p == 2:
            total = sum(cw * cw for cw in self._c)
            return Fraction(total, self._h_v * self._h_v)
        total = Fraction(0)
        for w, cw in enumerate(self._c):
            if cw:
                total += Fraction(cw, 1) ** p / w ** (p - 2)
        return total / Fraction(self._h_v) ** p

    def segal_norm(self, p: Any) -> float:
        if p == 2:
            return math.sqrt(float(self.segal_power_sum(2)))
        if p == 1:
            return float(self.l1_h())
        p = float(p)
        c = np.fromiter((float(x) for x in self._c), dtype=float)
        w = np.arange(len(self._c), dtype=float)
        w[0] = 1.0  # c[0] = 0; avoid 0/0
        u = c / (float(self._h_v) * w)
        return float(np.sum(w * w * u ** p) ** (1.0 / p))

    def absorbed_by(self, other: Any) -> bool:
        top = self.k2 + 2 * self.m2
        if isinstance(other, Su2IntervalBump):
            if top <= other.k2:
                return True
            return all(other.value(z) == 1 for z in range(other.k2 + 1, top + 1))
        mine = self.as_finite_function()
        return mine * other.as_finite_function() == mine

    def a_norm(self, config: QuadratureConfig | None = None) -> float:
        """Quadrature A-norm via the closed-form product of sine kernels.

        The kernel zeros are found once; when the Gauss-Kronrod residual
        misses the tolerance, every piece is split into 2, then 4, then 8.
        """
        config = config or DEFAULT_QUADRATURE
        p_dim = self.k2 + self.m2 + 1
        q_dim = self.m2 + 1
        breaks = su2num.interval_product_breakpoints(p_dim, q_dim)
        for split in (1, 2, 4, 8):
            raw, raw_residual = su2num.interval_product_l1(p_dim, q_dim, breaks, split)
            value = raw / float(self._h_v)
            residual = raw_residual / float(self._h_v)
            if residual <= config.tolerance:
                return value
        raise NumericError(
            f"interval quadrature residual {residual:.3e} exceeds "
            f"tolerance {config.tolerance:.3e}", residual=residual)

    def __repr__(self) -> str:
        return (f"<Su2IntervalBump k2={self.k2} m2={self.m2} "
                f"ratio={float(self.ratio):.6f}>")


def su2_interval_bump(H: Su2Dual, k2: int, m2: int) -> Su2IntervalBump:
    return Su2IntervalBump.build(H, k2, m2)
