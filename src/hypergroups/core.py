"""Discrete hypergroups in exact rational arithmetic.

A discrete hypergroup is a set with an identity, an involution ``x -> ~x``
and a "fusion" rule sending each pair of points to a finitely supported
probability measure.  Everything here is computed with `fractions.Fraction`
or integers (cyclotomic fields are integer arrays), so identities such as
"fusion masses sum to one" and "h(x) * (d_~x * d_x)(e) = 1" are checked by
exact equality, never by tolerance.

Labels are opaque: each concrete family chooses its own encoding (see
:mod:`hypergroups.duals`).  The only requirements are hashability and a
total order, which is used for all deterministic tie-breaking.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from collections.abc import Callable, Collection, Hashable, Iterable, Iterator, Set
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import product as iter_product
from typing import Any

import numpy as np

Label = Hashable

INT64_LIMIT = 1 << 63
FLOAT64_LIMIT = 1 << 53  # every integer below it is a float64


class HypergroupError(Exception):
    """Base class for all errors raised by this package.

    ``category`` and ``exit_code`` are what the CLI reports; a subclass inherits its parent's.
    """

    category, exit_code = "internal-invariant", 6


class UsageError(HypergroupError):
    """A caller violated an operation's precondition."""

    category, exit_code = "usage", 2


class LabelDomainError(UsageError):
    """A label does not belong to the hypergroup it was used with."""


class InvalidTableError(HypergroupError):
    """A character table violates its structural invariants."""

    category, exit_code = "invalid-table", 3


class CapacityError(HypergroupError):
    """A bounded search or enumeration exceeded its configured budget."""

    category, exit_code = "capacity", 4


class NumericError(HypergroupError):
    """A numerical routine failed to reach its accuracy target."""

    category, exit_code = "numeric", 5

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InternalInvariantError(HypergroupError):
    """Something the library itself guarantees was violated; indicates a bug."""


class AxiomViolationError(HypergroupError):
    """The supplied fusion data does not define a hypergroup."""


# Python's own limit on the digits of an int read from text
# (sys.int_info.default_max_str_digits).  Fraction expands a decimal exponent
# into an exact integer, so "1e10000000" would build ten million digits; an
# exponent past this bound is refused before that.
MAX_EXACT_EXPONENT = 4300

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def shown(value: Any, form: Callable[[Any], str] = repr) -> str:
    """``form`` (value) for an error message: an int past 640 digits (2^2126 < 10^640, the least
    limit Python allows) is named by its size, a value holding one Python will not write by type."""
    if isinstance(value, int) and not isinstance(value, bool) and value.bit_length() > 2126:
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} holding an int too long to write>"


def exact(value: Any, what: str) -> Fraction:
    """Caller input as an exact rational, else UsageError naming ``what``.

    Accepts an int (not a bool), a Fraction, or text that Fraction reads,
    such as "3", "-7/2" or "1.1", with a decimal exponent of at most
    MAX_EXACT_EXPONENT.  Floats are refused: they are not exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            exponent = _EXPONENT.search(value)
            if exponent and abs(int(exponent[1])) > MAX_EXACT_EXPONENT:
                raise UsageError(f"{what}: {value!r} has a decimal exponent beyond "
                                 f"{MAX_EXACT_EXPONENT}")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"{what}: {value!r} is not an exact rational ({exc})") from exc
    raise UsageError(f"{what}: exact rational expected, got {type(value).__name__}: {shown(value)}")


def exact_in_float_range(value: Any, what: str) -> Fraction:
    """:func:`exact`, and UsageError naming ``what`` for a value past float range."""
    q = exact(value, what)
    try:
        float(q)
    except OverflowError as exc:
        raise UsageError(f"{what}: {shown(value)} is not an exact number in float range") from exc
    return q


def fraction_text(q: Fraction) -> str:
    """q as "p/q" text, the form every report writes and :func:`exact` reads back."""
    return f"{q.numerator}/{q.denominator}"


def count(value: Any, what: str) -> int:
    """Caller input as a positive int (not a bool), else UsageError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise UsageError(f"{what}: must be a positive integer, got {shown(value)}")
    return value


def real(value: Any, what: str) -> Any:
    """Caller input as a real number in float range, else UsageError naming ``what``.

    Accepts an int (not a bool), a float or a Fraction, not NaN; infinity
    passes, for the caller's range check to decide.  Tolerances and
    exponents are read here.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if not math.isnan(value):
                return value
        except OverflowError:
            raise UsageError(f"{what}: {type(value).__name__} past float range") from None
    raise UsageError(f"{what}: real number expected, got {type(value).__name__}: {value!r}")


class ProductSample(Set):
    """The cartesian product of factor samples, sized and searched without being built."""

    def __init__(self, factors: list[Collection[Any]]):
        self.factors = factors

    def __len__(self) -> int:
        return math.prod(len(f) for f in self.factors)

    def __iter__(self) -> Iterator[tuple]:
        return iter_product(*self.factors)

    def __contains__(self, x: object) -> bool:
        return (isinstance(x, tuple) and len(x) == len(self.factors)
                and all(c in f for c, f in zip(x, self.factors)))


def label_count(labels: Collection[Any]) -> int:
    """The number of labels, also past the C ssize_t that len() is limited to."""
    if isinstance(labels, range):
        return max(0, -((labels.start - labels.stop) // labels.step))  # ceil(span / step)
    if isinstance(labels, ProductSample):
        return math.prod(label_count(f) for f in labels.factors)
    return len(labels)


class FiniteFunction:
    """A finitely supported function with exact rational values.

    Every value passes :func:`exact`, so a float is refused with
    UsageError.  The support is exactly the set of labels with nonzero
    value.
    """

    __slots__ = ("_value",)

    def __init__(self, values: dict[Label, Any]):
        clean: dict[Label, Fraction] = {}
        for label, value in values.items():
            q = exact(value, "value")
            if q:
                clean[label] = q
        self._value = clean

    @classmethod
    def point(cls, x: Label, value: Any = 1) -> "FiniteFunction":
        try:
            return cls({x: value})
        except TypeError as exc:  # a dict cannot hold an unhashable label
            raise UsageError(f"{shown(x)} is not a label: it is unhashable") from exc

    @classmethod
    def indicator(cls, labels: Iterable[Label]) -> "FiniteFunction":
        return cls({x: 1 for x in labels})

    def value(self, x: Label) -> Fraction:
        return self._value.get(x, Fraction(0))

    @property
    def support(self) -> tuple[Label, ...]:
        return tuple(sorted(self._value))

    def items(self) -> list[tuple[Label, Fraction]]:
        return sorted(self._value.items())

    def __len__(self) -> int:
        return len(self._value)

    def __add__(self, other: "FiniteFunction") -> "FiniteFunction":
        if not isinstance(other, FiniteFunction):
            return NotImplemented
        out = dict(self._value)
        for label, value in other._value.items():
            out[label] = out.get(label, 0) + value
        return FiniteFunction(out)

    def __sub__(self, other: "FiniteFunction") -> "FiniteFunction":
        if not isinstance(other, FiniteFunction):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other: "FiniteFunction") -> "FiniteFunction":
        """Pointwise product."""
        if not isinstance(other, FiniteFunction):
            return NotImplemented
        out = {}
        for label, value in self._value.items():
            if label in other._value:
                out[label] = value * other._value[label]
        return FiniteFunction(out)

    def scale(self, c: Any) -> "FiniteFunction":
        c = exact(c, "scale factor")
        return FiniteFunction({x: c * v for x, v in self._value.items()})

    def __eq__(self, other: object) -> bool:
        # a measure never equals a plain function, even with the same values
        if type(other) is not type(self):
            return NotImplemented
        return self._value == other._value

    def __repr__(self) -> str:
        body = ", ".join(f"{x!r}: {v}" for x, v in self.items())
        return f"{type(self).__name__}({{{body}}})"


class FiniteMeasure(FiniteFunction):
    """A FiniteFunction with nonnegative values, its masses.

    Point-fusion results additionally have total mass 1, which callers can
    check with :meth:`total`.
    """

    __slots__ = ()

    def __init__(self, masses: dict[Label, Any]):
        super().__init__(masses)
        for label, q in self._value.items():
            if q < 0:
                raise UsageError(f"negative mass {shown(q, str)} at label {shown(label)}")

    def mass(self, x: Label) -> Fraction:
        return self.value(x)

    def total(self) -> Fraction:
        return sum(self._value.values(), Fraction(0))

    def map_labels(self, fn: Callable[[Label], Label]) -> "FiniteMeasure":
        return FiniteMeasure({fn(x): v for x, v in self._value.items()})


class Hypergroup:
    """A discrete hypergroup given by a point-fusion oracle.

    Instances are immutable after construction.  Fusion measures are
    memoised per instance when the universe is finite, so the memo holds
    at most |U|^2 of them.  The public functions check the labels their
    caller passed, once, with :meth:`check_labels`, and then call engines
    that trust them (:meth:`fuse` calls :meth:`_fuse` and :meth:`haar`
    calls :meth:`_haar`).
    A family subclasses this with the oracles :meth:`_rule`, :meth:`_involution` and,
    where its labels need them, :meth:`_is_label` and :meth:`label_str`; a faster exact
    engine overrides :meth:`_haar`, :meth:`_haar_sum`, :meth:`_convolve_exact` and
    :meth:`_support_product`, whose defaults are the generic loops.
    """

    def __init__(self, *, name: str, identity: Label, commutative: bool,
                 universe: Iterable[Label] | None = None):
        self.name = name
        self._identity = identity
        self._commutative = bool(commutative)
        self.is_finite = universe is not None
        # the labels as given, sorted on the first read of universe
        self._labels = universe
        self._universe: tuple[Label, ...] | None = None
        self._fusion_cache: dict[tuple[Label, Label], FiniteMeasure] = {}

    @property
    def identity(self) -> Label:
        return self._identity

    @property
    def commutative(self) -> bool:
        return self._commutative

    @property
    def universe(self) -> tuple[Label, ...] | None:
        """All labels for finite hypergroups, sorted on the first read; None for infinite ones."""
        if self._universe is None and self.is_finite:
            self._universe = tuple(sorted(self._labels))
            self._labels = None
        return self._universe

    def _rule(self, x: Label, y: Label) -> dict[Label, Fraction]:  # the masses of d_x * d_y
        raise NotImplementedError

    def _involution(self, x: Label) -> Label:
        raise NotImplementedError

    def _is_label(self, x: Label) -> bool:
        """Whether x is a label here; an unhashable x never is."""
        try:
            return hash(x) is not None
        except TypeError:
            return False

    def check_labels(self, labels: Iterable[Label]) -> None:
        """Raise LabelDomainError at the first of ``labels`` that is not a label here."""
        for x in labels:
            if not self._is_label(x):
                raise LabelDomainError(f"{shown(x)} is not a label of {self.name}")

    def label_str(self, x: Label) -> str:
        return str(x)

    def fuse(self, x: Label, y: Label) -> FiniteMeasure:
        """The fusion measure d_x * d_y."""
        self.check_labels((x, y))
        return self._fuse(x, y)

    def _fuse(self, x: Label, y: Label) -> FiniteMeasure:
        result = self._fusion_cache.get((x, y))
        if result is None:
            result = FiniteMeasure(self._rule(x, y))
            if self.is_finite:
                self._fusion_cache[x, y] = result
                if self._commutative:
                    self._fusion_cache[y, x] = result
        return result

    def involution(self, x: Label) -> Label:
        self.check_labels((x,))
        return self._involution(x)

    def haar(self, x: Label) -> Fraction:
        """Haar mass h(x) = 1 / (d_~x * d_x)(e), normalised so h(e) = 1."""
        self.check_labels((x,))
        return self._haar(x)

    def _haar(self, x: Label) -> Fraction:
        mass_at_identity = self._fuse(self._involution(x), x).mass(self._identity)
        if mass_at_identity == 0:
            raise AxiomViolationError(
                f"identity not in support of fusion of {self.label_str(x)} with its "
                f"involute; {self.name} is not a hypergroup"
            )
        return 1 / mass_at_identity

    def haar_sum(self, labels: Collection[Label]) -> Fraction:
        """Sum of the Haar masses of ``labels``, each checked first."""
        self.check_labels(labels)
        return self._haar_sum(labels)

    def _haar_sum(self, labels: Collection[Label]) -> Fraction:
        return sum((self._haar(x) for x in labels), Fraction(0))

    def dimension(self, x: Label) -> int:
        """A positive integer weight of x: 1 here, the representation's dimension on a dual.

        On a dual, dim(x) dim(y) / dim(z) (d_x * d_y)(z) is the integer
        multiplicity of z in x (x) y; the associativity contraction scales
        every fusion mass by these weights (see :func:`_associativity_failures`).
        A family overrides the unchecked :meth:`_dimension`.
        """
        self.check_labels((x,))
        return self._dimension(x)

    def _dimension(self, x: Label) -> int:
        return 1

    def _convolve_exact(self, f: "FiniteFunction", g: "FiniteFunction") -> "FiniteFunction":
        """Weighted convolution of f and g."""
        return _convolve_h_loops(self, f, g)

    def _support_product(self, A: Collection[Label], B: Collection[Label]) -> frozenset[Label]:
        return _support_product_loops(self, A, B)

    def __repr__(self) -> str:
        size = len(self.universe) if self.is_finite else "infinite"
        return f"<Hypergroup {self.name} ({size})>"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def label_set(labels: Collection[Label]) -> Collection[Label]:
    """Checked ``labels`` read as a set: a range or a frozenset as given, else a frozenset.

    So a repeated label counts once in every Haar sum, and a range is never listed.
    """
    return labels if isinstance(labels, (range, frozenset)) else frozenset(labels)


def convolve_h(H: Hypergroup, f: FiniteFunction, g: FiniteFunction) -> FiniteFunction:
    """Convolution in the weighted algebra L1(H, h), by the family's exact engine.

    Bilinear extension of ``(d_x conv d_y)(z) = (d_x * d_y)(z) h(x) h(y) / h(z)``;
    exact zeros are pruned from the result.
    """
    H.check_labels(f.support)
    H.check_labels(g.support)
    return H._convolve_exact(f, g)


def _convolve_h_loops(H: Hypergroup, f: FiniteFunction, g: FiniteFunction) -> FiniteFunction:
    """convolve_h by the defining triple loop over fusion masses."""
    acc: dict[Label, Fraction] = {}
    for x, fx in f.items():
        hx = H._haar(x)
        for y, gy in g.items():
            weight = fx * gy * hx * H._haar(y)
            for z, mass in H._fuse(x, y).items():
                acc[z] = acc.get(z, 0) + weight * mass / H._haar(z)
    return FiniteFunction(acc)


def involute(H: Hypergroup, f: FiniteFunction) -> FiniteFunction:
    """The function x -> f(~x)."""
    return FiniteFunction({H.involution(x): v for x, v in f.items()})


def support_product(
    H: Hypergroup, A: Collection[Label], B: Collection[Label]
) -> frozenset[Label]:
    """Union of fusion supports over all pairs from A x B."""
    H.check_labels(A)
    H.check_labels(B)
    return H._support_product(A, B)


def _support_product_loops(
    H: Hypergroup, A: Collection[Label], B: Collection[Label]
) -> frozenset[Label]:
    """support_product by fusing every pair of A x B, each unordered pair once when A = B.

    On a commutative H with A and B the same set, (y, x) fuses to what
    (x, y) does, and an infinite dual keeps no fusion memo to make the
    mirror free, so each unordered pair is fused once.
    """
    labels = set(A)
    if H.commutative and labels == set(B):
        pairs: Iterable[tuple[Label, Label]] = combinations_with_replacement(labels, 2)
    else:
        pairs = iter_product(A, B)
    out: set[Label] = set()
    for x, y in pairs:
        out.update(H._fuse(x, y)._value)  # the support, unsorted
    return frozenset(out)


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomFailure:
    check: str
    labels: tuple[str, ...]
    detail: str


@dataclass
class AxiomReport:
    """Outcome of the exact axiom suite; failures are data, not exceptions."""

    hypergroup: str
    sample_size: int
    checks: dict[str, int] = field(default_factory=dict)
    failures: list[AxiomFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "hypergroup": self.hypergroup,
            "sample_size": self.sample_size,
            "checks": dict(sorted(self.checks.items())),
            "ok": self.ok,
            "failures": [
                {"check": f.check, "labels": list(f.labels), "detail": f.detail}
                for f in self.failures
            ],
        }

    def summary(self) -> str:
        lines = [f"axiom report for {self.hypergroup}: "
                 f"{'PASS' if self.ok else 'FAIL'} ({self.sample_size} sample labels)"]
        for name, count in sorted(self.checks.items()):
            lines.append(f"  {name}: {count} checks")
        for f in self.failures:
            lines.append(f"  FAIL {f.check} at ({', '.join(f.labels)}): {f.detail}")
        return "\n".join(lines)


def _check_pairs(
    H: Hypergroup, sample: list[Label], fuse: Callable[[Label, Label], FiniteMeasure]
) -> tuple[dict[str, int], list[AxiomFailure]]:
    counts = {"normalization": 0, "identity": 0, "involution_antihom": 0,
              "inverse_support": 0}
    if H.commutative:
        counts["commutativity"] = 0
    failures: list[AxiomFailure] = []
    e = H.identity
    involution = functools.cache(H.involution)  # checks each label once, not per pair

    for x in sample:
        counts["identity"] += 2
        if fuse(e, x) != FiniteMeasure.point(x):
            failures.append(AxiomFailure("identity", (H.label_str(x),),
                                         "fusion with identity on the left is not a point mass"))
        if fuse(x, e) != FiniteMeasure.point(x):
            failures.append(AxiomFailure("identity", (H.label_str(x),),
                                         "fusion with identity on the right is not a point mass"))
        counts["inverse_support"] += 1
        if fuse(involution(x), x).mass(e) == 0:
            failures.append(AxiomFailure("inverse_support", (H.label_str(x),),
                                         "identity missing from fusion with the involute"))

    for x in sample:
        for y in sample:
            mu = fuse(x, y)
            counts["normalization"] += 1
            total = mu.total()
            if total != 1:
                failures.append(AxiomFailure(
                    "normalization", (H.label_str(x), H.label_str(y)),
                    f"total mass {total} != 1"))
            counts["involution_antihom"] += 1
            tilde = mu.map_labels(involution)
            if tilde != fuse(involution(y), involution(x)):
                failures.append(AxiomFailure(
                    "involution_antihom", (H.label_str(x), H.label_str(y)),
                    "involute of the fusion differs from fusion of the swapped involutes"))
            if H.commutative:
                counts["commutativity"] += 1
                if mu != fuse(y, x):
                    failures.append(AxiomFailure(
                        "commutativity", (H.label_str(x), H.label_str(y)),
                        "fusion is not symmetric"))
    return counts, failures


# Budget of the associativity contraction, in the units of associativity_cost:
# 4M integers held (32 MB as int64 or float64) and 2^31 multiply-adds.  The
# contraction of check_axioms(su2, range(44)) does 1.9e9 of them in 0.4 s on
# the float64 path, 2.2-2.6 s on the int64 path and 52 s on the object path
# (numpy 2.4, single-threaded OpenBLAS, one Xeon core).  The largest sample
# in use, 30 product labels, needs at most 4.9e7; su2-hat samples fit up to
# spin 43/2.
MAX_ASSOCIATIVITY_ENTRIES = 1 << 22
MAX_ASSOCIATIVITY_WORK = 1 << 31

# Most subsets the exhaustive Leptin search may tabulate, checked from the
# universe size before any array is built.  Its subset DP holds three int64
# arrays over all 2^n subsets of an n-label universe, 24 bytes a subset,
# plus a 1-byte mask: about 105 MB at 2^22 subsets (n = 22).
MAX_LEPTIN_SUBSETS = 1 << 22

# Budgets of the su2-hat engines, checked from the top labels before any
# array is built.  A U-series product up to labels N and M does (N+1)(M+1)
# multiply-adds and holds arrays of N+M+1 integers: at 2^20, 0.14 s and
# 46 MB when one side is a single label, 0.42 s with dense huge rationals
# on the object path.  A finite function's A-norm takes its breakpoints
# from the eigenvalues of a companion matrix as large as the series degree
# (its top label), cubic in time: 0.86-0.96 s at 2^10 (numpy 2.4 on one
# Xeon core).  A plateau's series is the product of its factors' F_{K*V}
# and F_V, and its breakpoints are theirs: kernel zeros for an interval,
# else a companion matrix of the factor's degree.  So the A-norm of
# bump(su2, range(3), range(500)), degree 1000, takes 43 ms, and a
# plateau of two non-interval factors at degree 1017 takes 0.45 s.
MAX_U_PRODUCT_WORK = 1 << 20
MAX_U_SERIES_DEGREE = 1 << 10

# Most labels a listing may print, checked from the label count before any
# label is listed: the rows of the CLI's haar listing, and the K and V of a
# Leptin certificate's JSON.  A haar row peaks at 430-590 bytes (117 MB as
# text and 148 MB as JSON for the 200 001 su2-hat labels up to spin 100 000),
# so that listing stays near 200 MB; a certificate label costs less.
MAX_HAAR_ROWS = 1 << 18

# Largest degree phi(m) of the cyclotomic field Q(zeta_m) a character table
# may use, checked before the field is built.  Its product tensor holds
# phi^3 integers, 2 MB as int64 at 64; Z3 x Z5 x Z7 (m = 105) has degree 48.
MAX_CYCLOTOMIC_DEGREE = 64

# Largest interval-plateau support (k2 + 2 m2 + 1 labels) a witness stage, an
# A-norm, a non-integer Segal norm or a label->value function may have.  The
# plateau is O(1); that work is not: at the last stage of the D = 1.1, N = 5
# chain (1 871 761 labels) the A-norm at tolerance 1e-7 takes 0.32-0.35 s
# (numpy 2.4 on one Xeon core).  Its peak RSS, 2.5 MB above the import
# baseline, is the same at every stage, but its time grows with the support,
# so 2^22 labels admit that stage and refuse the next (58 935 667).
MAX_INTERVAL_SUPPORT = 1 << 22

# Most terms a witness chain may have.  The chain law checks every pair of
# stages, so the time grows with N^2 and a large N never finishes.  Nothing
# is lost below 64: an interval chain's k2 at least triples per stage, so
# MAX_INTERVAL_SUPPORT refuses every stage past the 14th at any D.
MAX_WITNESS_TERMS = 64


def cyclotomic_polynomial(m: int) -> list[int]:
    """Coefficients of the cyclotomic polynomial Phi_m, lowest degree first.

    Phi_m is the product of (x^(m/d) - 1)^mu(d) over the squarefree d | m.
    Each division p / (x^k - 1) is exact: the power series -p (1 + x^k + ...).
    """
    primes = [p for p in range(2, m + 1)
              if m % p == 0 and all(p % q for q in range(2, math.isqrt(p) + 1))]
    poly, divisors = [1], []
    for mask in range(1 << len(primes)):
        chosen = [p for bit, p in enumerate(primes) if mask >> bit & 1]
        k = m // math.prod(chosen)
        if len(chosen) % 2:
            divisors.append(k)
        else:
            poly = [a - b for a, b in zip([0] * k + poly, poly + [0] * k)]
    for k in divisors:
        poly = [-sum(poly[i::-k]) for i in range(len(poly) - k)]
    return poly


class CyclotomicField:
    """Q(zeta_m) on the power basis 1, zeta, .., zeta^(degree-1), as integer arrays.

    Row e of ``reduce`` is x^e mod Phi_m (e < m), so rows a m/d (a < phi(d))
    carry Q(zeta_d) in by zeta_d = zeta_m^(m/d).  ``mult[a, b]`` = reduce[a + b]
    multiplies and ``conj``, row a = reduce[-a], conjugates.  ``mu`` (largest
    sum over a, b of |mult[a, b, k]|) and ``gamma`` (largest column sum of
    |conj|) enter the overflow bounds.  A degree phi(m) >= sqrt(m / 2) over
    MAX_CYCLOTOMIC_DEGREE raises CapacityError, for a large m before phi is counted.
    """

    def __init__(self, m: int):
        if (m > 2 * MAX_CYCLOTOMIC_DEGREE ** 2
                or sum(math.gcd(k, m) == 1 for k in range(m)) > MAX_CYCLOTOMIC_DEGREE):
            raise CapacityError(f"the cyclotomic field of order {m} has degree over "
                                f"{MAX_CYCLOTOMIC_DEGREE}, the budget")
        phi_m = cyclotomic_polynomial(m)
        self.m, self.degree = m, len(phi_m) - 1
        rows = [[1] + [0] * (self.degree - 1)]
        for _ in range(m - 1):  # x^(e+1) = x x^e, and x^degree = x^degree - Phi_m
            rows.append([r - rows[-1][-1] * c for r, c in zip([0] + rows[-1][:-1], phi_m)])
        self.reduce = np.array(rows, dtype=np.int64)
        basis = np.arange(self.degree)
        self.mult, self.conj = self.reduce[np.add.outer(basis, basis) % m], self.reduce[-basis % m]
        self.mu = int(np.abs(self.mult).sum(axis=(0, 1)).max())
        self.gamma = int(np.abs(self.conj).sum(axis=0).max())

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of integer arrays of coefficient vectors (last axis), broadcast."""
        outer = a[..., :, None] * b[..., None, :]
        square = self.degree * self.degree
        return (outer.reshape(*outer.shape[:-2], square)
                @ self.mult.reshape(square, self.degree).astype(outer.dtype))


cyclotomic_field = functools.lru_cache(maxsize=32)(CyclotomicField)


def associativity_cost(s: int, t: int, w: int) -> tuple[int, int]:
    """(integers held at once, multiply-adds) of the associativity contraction.

    For s = |S| sample labels, t = |T| labels in S*S and w = |W| labels in
    T*S and S*T: the three fusion tensors hold s^2 t + 2 s t w integers and
    one slab (both sides, one x) 2 s^2 w more; the s slabs do 2 s^3 t w
    multiply-adds.
    """
    return s * s * t + 2 * s * t * w + 2 * s * s * w, 2 * s ** 3 * t * w


def _check_associativity_budget(s: int, t: int, w: int, bound: str = "") -> None:
    entries, work = associativity_cost(s, t, w)
    if entries > MAX_ASSOCIATIVITY_ENTRIES or work > MAX_ASSOCIATIVITY_WORK:
        raise CapacityError(
            f"associativity over {shown(s)} labels would hold {bound}{shown(entries)} integers "
            f"and do {bound}{shown(work)} multiply-adds; the budget is {MAX_ASSOCIATIVITY_ENTRIES} "
            f"and {MAX_ASSOCIATIVITY_WORK}")


def _contraction_dtype(t: int, m: int) -> Any:
    """The exact dtype of a contraction over t terms whose entries are at most m in size.

    float64 when t m^2 < FLOAT64_LIMIT, int64 when t m^2 < INT64_LIMIT, object otherwise.
    """
    bound = t * m * m
    if bound < FLOAT64_LIMIT:
        return np.float64
    return np.int64 if bound < INT64_LIMIT else object


def _scaled_masses(rows: list[list[tuple[int, FiniteMeasure]]], index: dict[Label, tuple[int, int]],
                   ) -> tuple[list[int], list[int], list[int]]:
    """Flat positions and reduced numerators and denominators of c mu(w) / a.

    For rows[i][j] = (c, mu) and index[w] = (k, a), the mass at w goes to the
    flat position (i, j, k) of an array of shape (len(rows), len(rows[0]), len(index)).
    """
    positions, nums, dens = [], [], []
    width, depth = len(rows[0]), len(index)
    for i, row in enumerate(rows):
        for j, (c, mu) in enumerate(row):
            base = (i * width + j) * depth
            for label, mass in mu.items():
                if label not in index:
                    raise InternalInvariantError(
                        f"fusion support label {label!r} missing from support_product")
                k, a = index[label]
                num, den = mass.numerator * c, mass.denominator * a
                g = math.gcd(num, den)
                positions.append(base + k)
                nums.append(num // g)
                dens.append(den // g)
    return positions, nums, dens


def _associativity_failures(H: Hypergroup, S: list[Label], T: list[Label], W: list[Label],
                            fuse: Callable[[Label, Label], FiniteMeasure] | None = None,
                            ) -> list[AxiomFailure]:
    """Triples of S where (x*y)*z != x*(y*z), in (x, y, z) order.

    T is the support of S*S and W that of T*S and S*T.  The oracle is
    called once for each pair of S x S, T x S and S x T, through ``fuse``
    (``H._fuse`` when None).  Each mass is
    scaled by the weights a = H._dimension, n_xy(w) = a_x a_y (d_x * d_y)(w) / a_w,
    and then to an integer over the common denominator L of the scaled masses:

        P[x, y, t] = L n_xy(t),  Q[t, z, w] = L n_tz(w),  R[x, t, w] = L n_xt(w),

    so that, as one contraction over t (the a_t cancel),

        sum_t P[x, y, t] Q[t, z, w] = L^2 (a_x a_y a_z / a_w) ((x*y)*z)(w),
        sum_t P[y, z, t] R[x, t, w] = L^2 (a_x a_y a_z / a_w) (x*(y*z))(w),

    and the two measures are equal exactly when these integers are, as the
    common factor is positive.  On a dual the scaled masses are the integer
    tensor multiplicities and L = 1; with a = 1 they are the masses.  Each
    mass is reduced and placed once; the tensors are filled from those lists.
    Each slab fixes x, so at most 2 |S|^2 |W| products are held at once.

    Let m be the largest |scaled mass|.  Every entry is an integer of size at
    most m, every product at most m^2, and every partial sum of a slab
    product, taken in any order, at most |T| m^2 in size (_contraction_dtype):

    - float64 when |T| m^2 < 2^53.  Every integer below 2^53 is a float64, so
      each multiply, add and fused multiply-add of these integers is exact,
      in any order and any blocking, and ``left != right`` is the integer
      comparison.  This assumes only that a product is a classical sum of
      products, as in numpy's own loop and in OpenBLAS or MKL dgemm, not a
      Strassen-type product, which would form differences of sums;
    - int64 when |T| m^2 < 2^63, by the same bound, with no wraparound;
    - Python-int object arrays otherwise.
    """
    weights: dict[Label, int] = {}

    def weight(x: Label) -> int:
        if x not in weights:
            weights[x] = H._dimension(x)
        return weights[x]

    fuse = fuse or H._fuse
    ss = [[(weight(x) * weight(y), fuse(x, y)) for y in S] for x in S]
    ts = [[(weight(t) * weight(z), fuse(t, z)) for z in S] for t in T]
    st = [[(weight(x) * weight(t), fuse(x, t)) for t in T] for x in S]
    t_index = {t: (i, weight(t)) for i, t in enumerate(T)}
    w_index = {w: (i, weight(w)) for i, w in enumerate(W)}
    masses = [_scaled_masses(ss, t_index), _scaled_masses(ts, w_index), _scaled_masses(st, w_index)]
    scale = math.lcm(*(d for _, _, dens in masses for d in dens))
    values = [nums if scale == 1 else [n * (scale // d) for n, d in zip(nums, dens)]
              for _, nums, dens in masses]
    dtype = _contraction_dtype(len(T), max((abs(v) for vals in values for v in vals), default=0))
    P, Q, R = (np.zeros(shape, dtype=dtype) for shape in
               ((len(S), len(S), len(T)), (len(T), len(S) * len(W)), (len(S), len(T), len(W))))
    for tensor, (positions, _, _), vals in zip((P, Q, R), masses, values):
        tensor.flat[positions] = np.array(vals, dtype=dtype)
    pairs = P.reshape(len(S) * len(S), len(T))

    failures = []
    for i, x in enumerate(S):
        left = (P[i] @ Q).reshape(len(S) * len(S), len(W))
        right = pairs @ R[i]
        for k in np.flatnonzero((left != right).any(axis=1)):
            y, z = S[k // len(S)], S[k % len(S)]
            failures.append(AxiomFailure(
                "associativity",
                (H.label_str(x), H.label_str(y), H.label_str(z)),
                "bilinear extensions of (x*y)*z and x*(y*z) differ"))
    return failures


def check_axioms(H: Hypergroup, sample: Collection[Label]) -> AxiomReport:
    """Exact verification of the hypergroup axioms over a finite sample.

    Checks mass normalization, identity laws, associativity of point fusion
    (extended bilinearly) over all triples, the involution anti-homomorphism
    law, presence of the identity in ``~x * x``, and commutativity when the
    hypergroup is flagged commutative.  Every failure carries a witness.

    The size of the associativity contraction is known from the supports
    alone; when :func:`associativity_cost` exceeds MAX_ASSOCIATIVITY_ENTRIES
    or MAX_ASSOCIATIVITY_WORK, CapacityError is raised before any fusion
    table is built.  A sample that holds the identity is first priced with
    T = W = S, a lower bound, and refused before any support product.  A
    range or a set holds each label once, so it is priced before it is
    walked or copied, counted by :func:`label_count` also past 2^63.
    """
    if not isinstance(sample, (range, Set)):
        H.check_labels(sample)
        sample = set(sample)
    size = label_count(sample)
    if not size:
        raise UsageError("axiom check requires a nonempty sample")
    if H.identity in sample:
        # S*S and then T*S hold S, so |S| prices all three sizes from below
        _check_associativity_budget(size, size, size, "at least ")
    H.check_labels(sample)
    sample = sorted(sample)
    T = sorted(support_product(H, sample, sample))
    W = sorted(support_product(H, T, sample) | support_product(H, sample, T))
    _check_associativity_budget(len(sample), len(T), len(W))

    # the pair checks and the contraction share one fusion dictionary, kept
    # for this call only: su2-hat keeps none of its own
    fuse = functools.cache(H._fuse)
    counts, failures = _check_pairs(H, sample, fuse)
    counts["associativity"] = len(sample) ** 3
    failures.extend(_associativity_failures(H, sample, T, W, fuse))

    return AxiomReport(hypergroup=H.name, sample_size=len(sample),
                       checks=counts, failures=failures)
