"""Concrete duals of compact groups as commutative discrete hypergroups.

Three families are provided, each a :class:`Dual` (Haar mass dim(x)^2):

* :func:`su2_dual` -- the dual of SU(2).  Labels are nonnegative integers
  n = 2 * spin, fusion follows the Clebsch-Gordan decomposition, and the
  Haar mass of label n is (n + 1)^2.
* :func:`finite_group_dual` -- the dual of a finite group described by a
  :class:`CharacterTable`.  Labels are irrep indices; tensor multiplicities
  are exact character inner products, one integer contraction per pair.
* :func:`product_dual` -- finite products with componentwise fusion.

Fusion coefficients are always exact rationals.  Character values are
exact elements of a cyclotomic field Q(zeta_m), kept as integer
coefficients over one common denominator, so tensor multiplicities are
exact integers for every table.  :func:`central_function` takes the class
values of a product of finite duals from the factor tables, one
contraction per factor, with classes row-major over the factors; a finite
dual is the product of one factor.
"""

from __future__ import annotations

import bisect
import json
import math
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product as iter_product
from pathlib import Path
from typing import Any

import numpy as np

from . import su2num
from .core import (
    INT64_LIMIT,
    MAX_U_PRODUCT_WORK,
    MAX_U_SERIES_DEGREE,
    CapacityError,
    FiniteFunction,
    Hypergroup,
    InvalidTableError,
    Label,
    LabelDomainError,
    ProductSample,
    UsageError,
    _support_product_loops,
    count,
    cyclotomic_field,
    exact,
    exact_in_float_range,
    shown,
)


# ---------------------------------------------------------------------------
# Character tables
# ---------------------------------------------------------------------------


class ExactComplex:
    """An exact element of the cyclotomic field Q(zeta_m), zeta_m = exp(2 pi i / m).

    Integer coefficients ``nums`` on the reduced power basis of
    :class:`CyclotomicField` over one positive denominator ``den``, in lowest
    terms, so equal values of one field are equal tuples; two fields meet in
    the field of the lcm of their orders.  ``ExactComplex(re, im)`` is
    re + i im in Q(zeta_4); a rational coerces into Q(zeta_1) = Q.
    """

    __slots__ = ("m", "nums", "den")

    def __new__(cls, re: Any = 0, im: Any = 0) -> "ExactComplex":
        re, im = exact(re, "character value"), exact(im, "character value")
        return cls._of(4, (re.numerator * im.denominator, im.numerator * re.denominator),
                       re.denominator * im.denominator)

    @classmethod
    def _of(cls, m: int, nums: Iterable[int], den: int) -> "ExactComplex":
        """(sum_k nums[k] zeta_m^k) / den, for reduced integer coefficients."""
        self = object.__new__(cls)
        nums = tuple(nums.tolist() if isinstance(nums, np.ndarray) else nums)
        g = math.gcd(den, *nums)
        self.m, self.nums, self.den = m, nums if g == 1 else tuple(c // g for c in nums), den // g
        return self

    @classmethod
    def cyclotomic(cls, m: int, coefficients: Sequence[Any]) -> "ExactComplex":
        """sum_k c_k zeta_m^k for exact c_k, reduced mod Phi_m."""
        count(m, "cyclotomic order")
        parts = [exact(c, "character value") for c in coefficients]
        den = math.lcm(*(q.denominator for q in parts))
        nums, field = [q.numerator * (den // q.denominator) for q in parts], cyclotomic_field(m)
        if len(nums) != field.degree:  # not yet on the reduced basis
            nums = np.array(nums, dtype=object) @ field.reduce[np.arange(len(nums)) % m]
        return cls._of(m, nums, den)

    @classmethod
    def coerce(cls, value: Any) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        q = exact(value, "character value")
        return cls._of(1, (q.numerator,), q.denominator)

    def lift(self, m: int) -> np.ndarray:
        """The numerators in Q(zeta_m), m a multiple of the order, as an object array."""
        nums = np.array(self.nums, dtype=object)
        if m == self.m:
            return nums
        return nums @ cyclotomic_field(m).reduce[np.arange(len(nums)) * (m // self.m)]

    def _common(self, other: Any) -> tuple[int, np.ndarray, np.ndarray, int, int]:
        other = ExactComplex.coerce(other)
        m = math.lcm(self.m, other.m)
        return m, self.lift(m), other.lift(m), self.den, other.den

    def __add__(self, other: Any) -> "ExactComplex":
        m, a, b, p, q = self._common(other)
        return ExactComplex._of(m, a * q + b * p, p * q)

    def __mul__(self, other: Any) -> "ExactComplex":
        m, a, b, p, q = self._common(other)
        return ExactComplex._of(m, cyclotomic_field(m).product(a, b), p * q)

    def conjugate(self) -> "ExactComplex":
        return ExactComplex._of(self.m, self.lift(self.m) @ cyclotomic_field(self.m).conj,
                                self.den)

    def abs_squared(self) -> "ExactComplex":
        """|z|^2 = z conj(z), exact."""
        return self * self.conjugate()

    def rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        return None if any(self.nums[1:]) else Fraction(self.nums[0], self.den)

    def as_complex(self) -> complex:
        turn = 2 * math.pi / self.m
        return sum(c * complex(math.cos(k * turn), math.sin(k * turn))
                   for k, c in enumerate(self.nums)) / self.den

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, bool) or not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        m, a, b, p, q = self._common(other)
        return bool((a * q == b * p).all())

    def __hash__(self) -> int:
        # consistent with equality across fields: every irrational value shares one hash
        return hash(self.rational())

    def __repr__(self) -> str:
        q = self.rational()
        return f"{q}" if q is not None else "(" + " + ".join(
            f"{Fraction(c, self.den)}*z{self.m}^{k}" for k, c in enumerate(self.nums) if c) + ")"


@dataclass(frozen=True)
class Irrep:
    dim: int
    values: tuple[ExactComplex, ...]
    name: str


class CharacterTable:
    """Class sizes and exact character values of a finite group.

    Construction validates the size bookkeeping (class sizes sum to the
    group order, squared dimensions sum to the group order), first-column
    consistency, and row orthogonality; it also locates the trivial irrep
    and the conjugate of every row.  Violations raise
    :class:`InvalidTableError` with the offending rows named.

    Integer form.  The values lie in Q(zeta_m), m (``cyclotomic``) the lcm
    of their fields' orders (4 for Gaussian rationals).  With L (``scale``)
    their common denominator, X[i, c] holds the coefficients of L chi_i(c),
    an integer array of shape (irreps, classes, phi(m)), beside its
    conjugate and the class sizes s.  Products are the integer tensor
    M[a, b] = x^(a+b) mod Phi_m and conjugation the integer matrix C, row
    a = x^(m-a) mod Phi_m, so every check is an integer contraction:

        L^2 |G| <chi_i, chi_j>  = sum_c s_c X_ic conj(X_jc),
        L^3 |G| m(i, j, k)      = sum_c s_c X_ic X_jc conj(X_kc).

    With A the largest |entry| of X, mu the largest sum over a, b of
    |M[a, b, k]| and gamma the largest column sum of |C|, a conjugate entry
    is at most gamma A and a class term at most gamma mu^2 s_c A^3, so every
    product, entry and partial sum is bounded by gamma mu^2 |G| A^3, as are
    the targets |G| L^2 and |G| L^3 (the identity column holds dim L >= L).
    The arrays are int64 when that bound is below 2^63, else Python-int
    object arrays; for m = 4 (mu = 2, gamma = 1) it is 4 |G| A^3.  The
    defining class loops are the oracles the tests compare against, in the
    tests' ``oracles`` module.
    """

    def __init__(
        self,
        group_order: int,
        class_sizes: Sequence[int],
        irreps: Sequence[tuple[int, Sequence[Any]] | tuple[int, Sequence[Any], str]],
        *,
        name: str = "table",
    ):
        _typed(group_order, int, f"{name}: group_order")
        if group_order <= 0:
            raise InvalidTableError(f"{name}: group order must be positive")
        self.name = name
        self.group_order = group_order
        self.class_sizes = tuple(_typed(s, int, f"{name}: classes[{c}]")
                                 for c, s in enumerate(class_sizes))
        if any(s <= 0 for s in self.class_sizes):
            raise InvalidTableError(f"{name}: class sizes must be positive")
        if sum(self.class_sizes) != self.group_order:
            raise InvalidTableError(
                f"{name}: class sizes sum to {sum(self.class_sizes)}, "
                f"expected group order {self.group_order}")

        rows: list[Irrep] = []
        named: dict[str, int] = {}
        for idx, entry in enumerate(irreps):
            dim, values = entry[0], entry[1]
            irrep_name = entry[2] if len(entry) > 2 and entry[2] else f"pi{idx}"
            if irrep_name in named:
                raise InvalidTableError(f"{name}: irreps[{named[irrep_name]}] and irreps[{idx}] "
                                        f"are both named {irrep_name!r}")
            named[irrep_name] = idx
            _typed(dim, int, f"{name}: irreps[{idx}].dim")
            if dim <= 0:
                raise InvalidTableError(f"{name}: irreps[{idx}] has dimension {dim}")
            if len(values) != len(self.class_sizes):
                raise InvalidTableError(
                    f"{name}: irreps[{idx}] has {len(values)} values for "
                    f"{len(self.class_sizes)} classes")
            rows.append(Irrep(dim, tuple(
                v if isinstance(v, ExactComplex)
                else ExactComplex.coerce(_parse_component(v, f"{name}: irreps[{idx}].values[{c}]"))
                for c, v in enumerate(values)), irrep_name))
            if rows[-1].values[0].rational() != dim:
                raise InvalidTableError(
                    f"{name}: irreps[{idx}] value at the identity class is "
                    f"{rows[-1].values[0]!r}, expected the dimension {dim}")
        if not rows:
            raise InvalidTableError(f"{name}: no irreps")
        self.cyclotomic = math.lcm(*(v.m for r in rows for v in r.values))
        self._field = cyclotomic_field(self.cyclotomic)
        self.irreps = tuple(Irrep(r.dim, tuple(v if v.m == self.cyclotomic else ExactComplex._of(
            self.cyclotomic, v.lift(self.cyclotomic), v.den) for v in r.values), r.name)
            for r in rows)
        self.n_irreps = len(self.irreps)
        self.dims = tuple(r.dim for r in self.irreps)
        self.names = tuple(r.name for r in self.irreps)
        if sum(d * d for d in self.dims) != self.group_order:
            raise InvalidTableError(
                f"{name}: sum of squared dimensions is "
                f"{sum(d * d for d in self.dims)}, expected {self.group_order}")

        values = [v for r in self.irreps for v in r.values]
        self.scale = math.lcm(*(v.den for v in values))
        flat = [c * (self.scale // v.den) for v in values for c in v.nums]
        bound = self._field.gamma * self._field.mu ** 2 * group_order * max(map(abs, flat)) ** 3
        self._values = np.array(flat, dtype=np.int64 if bound < INT64_LIMIT else object).reshape(
            self.n_irreps, len(self.class_sizes), -1)
        self._conj = self._values @ self._field.conj.astype(self._values.dtype)
        self._dims = np.array(self.dims)
        self._sizes = np.array(self.class_sizes, dtype=self._values.dtype)
        self.trivial_index, self._conjugate = self._validate()

    # -- the integer engine ---------------------------------------------------

    def _gram(self) -> np.ndarray:
        """L^2 |G| <chi_i, chi_j> at [i, j]: per row i, s X_i times every conjugate row."""
        weighted = self._values * self._sizes[:, None]
        return np.stack([self._field.product(row, self._conj).sum(axis=1) for row in weighted])

    def _validate(self) -> tuple[int, tuple[int, ...]]:
        """Orthogonality, the trivial row and the conjugate rows; (trivial, conjugates)."""
        gram = self._gram()
        n, order = self.n_irreps, self.group_order
        target = np.zeros_like(gram)
        target[range(n), range(n), 0] = order * self.scale * self.scale
        failing = np.argwhere(np.triu((gram != target).any(axis=2)))
        if len(failing):
            i, j = failing[0].tolist()
            self._orthogonality_error(
                i, j, ExactComplex._of(self.cyclotomic, gram[i, j], self.scale ** 2))

        one = (self._values[..., 0] == self.scale).all(axis=1) & (self._dims == 1)
        trivial = np.flatnonzero(one & (self._values[..., 1:] == 0).all(axis=(1, 2)))
        if len(trivial) != 1:
            raise InvalidTableError(
                f"{self.name}: expected exactly one trivial irrep, found {len(trivial)}")
        conjugates = tuple(
            self._conjugate_of(i, np.flatnonzero(
                (self._dims == self._dims[i]) & (self._values == self._conj[i]).all(axis=(1, 2))
            ).tolist())
            for i in range(n))
        return int(trivial[0]), conjugates

    # -- validation helpers -------------------------------------------------

    def _orthogonality_error(self, i: int, j: int, value: Any) -> None:
        raise InvalidTableError(
            f"{self.name}: rows {i} ({self.irreps[i].name}) and {j} "
            f"({self.irreps[j].name}) fail orthogonality: "
            f"<chi_{i}, chi_{j}> * |G| = {value!r}")

    def _conjugate_of(self, i: int, hits: list[int]) -> int:
        if not hits:
            raise InvalidTableError(
                f"{self.name}: no conjugate row for irrep {i} ({self.irreps[i].name})")
        return hits[0]  # the only one: orthogonality refuses two equal rows

    def _checked_multiplicity(self, i: int, j: int, k: int, total: ExactComplex) -> int:
        """total / |G| as a nonnegative integer, for total = |G| m(i, j, k)."""
        q = total.rational()
        m = None if q is None else q / self.group_order
        if m is None or m.denominator != 1 or m < 0:
            raise InvalidTableError(f"{self.name}: multiplicity ({i},{j},{k}) = {total!r} / "
                                    f"{self.group_order} is not a nonnegative integer")
        return int(m)

    # -- queries ------------------------------------------------------------

    def conjugate_index(self, i: int) -> int:
        return self._conjugate[i]

    def irrep_index(self, key: Any) -> int:
        """Resolve an irrep by index or name."""
        if isinstance(key, int) and not isinstance(key, bool):
            if 0 <= key < self.n_irreps:
                return key
            raise LabelDomainError(f"{self.name}: irrep index {key} out of range")
        if isinstance(key, str):
            for i, row in enumerate(self.irreps):
                if row.name == key:
                    return i
            raise LabelDomainError(f"{self.name}: no irrep named {key!r}")
        raise LabelDomainError(f"{self.name}: cannot resolve irrep {key!r}")

    def _tensor_inner(self, i: int, j: int, ks: list[int]) -> list[int]:
        """[m(i, j, k) for k in ks]: the class vector P_c = s_c X_ic X_jc times each
        conjugate row k, summed over the classes, is L^3 |G| m(i, j, k).  The
        first k that is not a nonnegative integer raises."""
        weighted = self._field.product(self._values[i], self._values[j]) * self._sizes[:, None]
        totals = self._field.product(weighted, self._conj[ks]).sum(axis=1)
        denom = self.group_order * self.scale ** 3
        bad = np.flatnonzero((totals[:, 1:] != 0).any(axis=1) | (totals[:, 0] % denom != 0)
                             | (totals[:, 0] < 0))
        if len(bad):
            at = bad[0]
            self._checked_multiplicity(
                i, j, ks[at], ExactComplex._of(self.cyclotomic, totals[at], self.scale ** 3))
        return (totals[:, 0] // denom).tolist()

    def multiplicity(self, i: int, j: int, k: int) -> int:
        """Multiplicity of irrep k inside the tensor product of irreps i and j.

        The character inner product (1/|G|) sum over classes of
        |c| chi_i chi_j conj(chi_k), one integer contraction; it must come
        out a nonnegative integer.
        """
        return self._tensor_inner(i, j, [k])[0]

    def multiplicities(self, i: int, j: int) -> list[int]:
        """[multiplicity(i, j, k) for every k], as one contraction."""
        return self._tensor_inner(i, j, list(range(self.n_irreps)))

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        """The form :func:`parse_character_table` reads, each value as m components."""
        pad = (0,) * (self.cyclotomic - self._field.degree)
        return {"name": self.name, "group_order": self.group_order,
                "cyclotomic": self.cyclotomic, "classes": list(self.class_sizes),
                "irreps": [{"dim": r.dim, "name": r.name, "values": [
                    [str(Fraction(c, v.den)) for c in v.nums + pad] for v in r.values]}
                           for r in self.irreps]}


# ---------------------------------------------------------------------------
# Table parsing
# ---------------------------------------------------------------------------


def _parse_component(raw: Any, where: str) -> Fraction:
    """raw read by :func:`exact`; InvalidTableError naming where, for a float too."""
    try:
        return exact(raw, f"{where}: bad rational")
    except UsageError as exc:
        raise InvalidTableError(str(exc)) from exc


_JSON_KINDS = {int: "an integer", list: "a list", str: "a string"}


def _typed(raw: Any, kind: type, where: str) -> Any:
    """raw when it is a JSON value of the given kind, else InvalidTableError naming where.

    No table field is boolean, so a bool is rejected even where an int is expected.
    """
    if isinstance(raw, bool) or not isinstance(raw, kind):
        raise InvalidTableError(f"{where}: expected {_JSON_KINDS[kind]}, got {type(raw).__name__}")
    return raw


def parse_character_table(data: dict[str, Any], *, name: str | None = None) -> CharacterTable:
    """Build a table from its JSON dictionary form.

    With ``"cyclotomic": m`` each value is a list of m components c_0 ..
    c_(m-1), the value sum_k c_k zeta_m^k, reduced mod Phi_m; a field of
    degree over MAX_CYCLOTOMIC_DEGREE raises CapacityError at the first
    value.  Without the key each value is an [re, im] pair, the first two
    components of m = 4: re + i im.  Components are integers or "p/q"
    strings read by :func:`exact`, so a float is refused.  ``classes``,
    ``irreps`` and ``values`` must be lists and names strings; the group
    order, class sizes and dimensions are typed by the :class:`CharacterTable`
    constructor.
    Any other input raises InvalidTableError naming its path, such as
    ``irreps[2].dim``.
    """
    if not isinstance(data, dict):
        raise InvalidTableError("table document must be a JSON object")
    if "name" in data:
        _typed(data["name"], str, f"{name or 'table'}: name")
    table_name = name or data.get("name") or "table"
    for field_name in ("group_order", "classes", "irreps"):
        if field_name not in data:
            raise InvalidTableError(f"{table_name}: missing field {field_name!r}")
    classes = _typed(data["classes"], list, f"{table_name}: classes")
    m, width, shape = 4, 2, "an [re, im] pair"
    if "cyclotomic" in data:
        m = width = _typed(data["cyclotomic"], int, f"{table_name}: cyclotomic")
        if m < 1:
            raise InvalidTableError(f"{table_name}: cyclotomic must be positive, got {m}")
        shape = f"a list of {m} components"
    irreps = []
    for idx, entry in enumerate(_typed(data["irreps"], list, f"{table_name}: irreps")):
        where = f"{table_name}: irreps[{idx}]"
        if not isinstance(entry, dict) or "dim" not in entry or "values" not in entry:
            raise InvalidTableError(f"{where}: expected an object with dim and values")
        irrep_name = _typed(entry.get("name", ""), str, f"{where}.name")
        values = []
        for v_idx, parts in enumerate(_typed(entry["values"], list, f"{where}.values")):
            v_where = f"{where}.values[{v_idx}]"
            if not isinstance(parts, (list, tuple)) or len(parts) != width:
                raise InvalidTableError(f"{v_where}: expected {shape}")
            values.append(ExactComplex.cyclotomic(
                m, [_parse_component(part, v_where) for part in parts]))
        irreps.append((entry["dim"], values, irrep_name))
    return CharacterTable(data["group_order"], classes, irreps, name=table_name)


def load_character_table(path: str | Path) -> CharacterTable:
    """The table in a UTF-8 JSON file: UsageError if unreadable, InvalidTableError if bad."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read table file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidTableError(f"{path}: not UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidTableError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_character_table(data)


BUILTIN_TABLES = ("z2", "z4", "s3", "q8")


def builtin_table(name: str) -> CharacterTable:
    """One of the bundled example tables: z2, z4, s3, q8."""
    from importlib import resources

    if name not in BUILTIN_TABLES:
        raise UsageError(f"no bundled table {name!r}; choose from {BUILTIN_TABLES}")
    table_file = resources.files("hypergroups.tables").joinpath(f"{name}.json")
    return parse_character_table(json.loads(table_file.read_text(encoding="utf-8")), name=name)


# ---------------------------------------------------------------------------
# The dual of a compact group, and of SU(2)
# ---------------------------------------------------------------------------


class Dual(Hypergroup):
    """The dual of a compact group: commutative, Haar mass h(x) = dim(x)^2, an int in `_haar`."""

    def __init__(self, *, name: str, identity: Label, universe: Iterable[Label] | None = None):
        super().__init__(name=name, identity=identity, commutative=True, universe=universe)

    def _haar(self, x: Label) -> int:
        return self._dimension(x) ** 2

    def _haar_sum(self, labels: Collection[Label]) -> int:
        return sum(d * d for d in map(self._dimension, labels))

    def parse_label(self, text: str, what: str = "label") -> Label:
        """The label :meth:`label_str` writes as ``text``, else UsageError naming ``what``."""
        raise NotImplementedError

    def spin_sample(self, max_ell: Fraction, what: str) -> Collection[Label]:
        """The labels up to spin max_ell on each su2-hat factor: here, the whole universe."""
        return self.universe


def ell_str(n: int) -> str:
    """Spin notation for the label n = 2*ell."""
    return str(n // 2) if n % 2 == 0 else f"{n}/2"


def twice_spin(value: Any, what: str = "spin") -> int:
    """Exact half-integer -> its doubled integer encoding, else UsageError naming ``what``."""
    doubled = exact(value, what) * 2
    if doubled.denominator != 1 or doubled < 0:
        raise UsageError(f"{what}: expected a nonnegative half-integer, got {shown(value, str)}")
    return int(doubled)


class Su2Dual(Dual):
    """Dual of SU(2); labels n = 2*spin, Clebsch-Gordan fusion, h(n) = (n+1)^2.

    The exact engine works with U-series.  Write F = sum_x f(x) (x+1) U_x for
    a function f on labels (:func:`su2num.u_series`).  Since d_x *_h d_y =
    (x+1)(y+1)/(z+1) at each z of the Clebsch-Gordan range |x-y|, |x-y|+2,
    .., x+y (the fusion mass (z+1)/((x+1)(y+1)) times h(x) h(y) / h(z)), and
    U_x U_y = sum_z U_z over the same range, F G = sum_z (z+1) (f *_h g)(z) U_z.
    So weighted convolution is one integer U-series product
    (:func:`su2num.u_product`), and the support of A*B is the nonzero set of
    F_A F_B (no cancellation: every term is positive), on int64 within the
    budget, as F_A sums to at most (max A + 1)^2.  Work over MAX_U_PRODUCT_WORK is
    refused up front, except that a support product whose pairwise fusion
    loops emit at most that many labels (sparse high labels) takes the
    loops.  A point fusion of more labels than that is refused too.  Fusion
    is not memoised, as the universe is infinite.
    """

    def __init__(self):
        super().__init__(name="su2-hat", identity=0)

    def _is_label(self, n: Any) -> bool:
        return isinstance(n, int) and not isinstance(n, bool) and n >= 0

    def _involution(self, n: int) -> int:
        return n

    label_str = staticmethod(ell_str)

    def parse_label(self, text: str, what: str = "label") -> int:
        return twice_spin(exact_in_float_range(text.strip(), what), what)

    def spin_sample(self, max_ell: Fraction, what: str) -> range:
        return range(twice_spin(max_ell, what) + 1)

    def _rule(self, n1: int, n2: int) -> dict[int, Fraction]:
        _check_fusion_size(self, n1, n2, min(n1, n2) + 1)
        denom = (n1 + 1) * (n2 + 1)
        return {r: Fraction(r + 1, denom)
                for r in range(abs(n1 - n2), n1 + n2 + 1, 2)}

    def _dimension(self, x: int) -> int:
        return x + 1

    def check_labels(self, labels: Iterable[Any]) -> None:
        # a range of nonnegative integers is valid without a walk
        if isinstance(labels, range) and (not labels or min(labels[0], labels[-1]) >= 0):
            return
        super().check_labels(labels)

    def _haar_sum(self, labels: Collection[int]) -> int:
        if isinstance(labels, range) and labels.step == 1 and labels.start >= 0:
            # (x+1)^2 summed over start <= x < stop
            stop = max(labels.start, labels.stop)
            return su2num.sum_squares(stop) - su2num.sum_squares(labels.start)
        return sum((x + 1) * (x + 1) for x in labels)

    def _check_u_product(self, A: Collection[int], B: Collection[int]) -> None:
        """Refuse a product up to max A and max B (both nonempty) past MAX_U_PRODUCT_WORK."""
        work = (max(A) + 1) * (max(B) + 1)
        if work > MAX_U_PRODUCT_WORK:
            raise CapacityError(
                f"a su2-hat U-series product up to labels {shown(max(A))} and {shown(max(B))} "
                f"would do {shown(work)} multiply-adds; the budget is {MAX_U_PRODUCT_WORK}")

    def _convolve_exact(self, f: FiniteFunction, g: FiniteFunction) -> FiniteFunction:
        if not f or not g:
            return FiniteFunction({})
        self._check_u_product(f.support, g.support)
        a, scale_f = su2num.u_series(f.items())
        b, scale_g = su2num.u_series(g.items())
        c = su2num.u_product(a, b)
        return FiniteFunction({z: Fraction(int(c[z]), (z + 1) * scale_f * scale_g)
                               for z in np.flatnonzero(c).tolist()})

    def _support_product(self, A: Collection[int], B: Collection[int]) -> frozenset[int]:
        if not A or not B:
            return frozenset()
        if ((max(A) + 1) * (max(B) + 1) > MAX_U_PRODUCT_WORK
                and _fusion_loop_work(A, B) <= MAX_U_PRODUCT_WORK):
            # sparse high labels: fusing each pair emits far fewer labels
            return _support_product_loops(self, A, B)
        self._check_u_product(A, B)
        c = su2num.u_product(su2num.indicator_series(A), su2num.indicator_series(B))
        return frozenset(np.flatnonzero(c).tolist())


def _fusion_loop_work(A: Collection[int], B: Collection[int]) -> int:
    """Labels the pairwise fusion loops emit for A x B on su2-hat: the sum of min(a, b) + 1.

    Each pair emits at least one label, so |A| |B| over MAX_U_PRODUCT_WORK
    is returned as it stands; below it, one sorted pass prices all pairs.
    """
    pairs = len(A) * len(B)
    if pairs > MAX_U_PRODUCT_WORK:
        return pairs
    below = sorted(B)
    prefix = [0, *accumulate(b + 1 for b in below)]
    work = 0
    for a in A:
        k = bisect.bisect_right(below, a)  # b <= a emits b + 1 labels, b > a emits a + 1
        work += prefix[k] + (a + 1) * (len(below) - k)
    return work


def _check_fusion_size(H: Hypergroup, x: Any, y: Any, size: int) -> None:
    """Refuse a fusion of x and y of ``size`` labels past MAX_U_PRODUCT_WORK before building it."""
    if size > MAX_U_PRODUCT_WORK:
        raise CapacityError(f"the fusion of {shown(x, H.label_str)} and {shown(y, H.label_str)} "
                            f"has {shown(size)} labels; the budget is {MAX_U_PRODUCT_WORK}")


def su2_dual() -> Su2Dual:
    return Su2Dual()


# ---------------------------------------------------------------------------
# Duals of finite groups
# ---------------------------------------------------------------------------


class FiniteDual(Dual):
    """Dual of a finite group; labels are irrep indices into the table."""

    def __init__(self, table: CharacterTable):
        self.table = table
        super().__init__(name=f"{table.name}-hat", identity=table.trivial_index,
                         universe=range(table.n_irreps))

    def _is_label(self, i: Any) -> bool:
        return isinstance(i, int) and not isinstance(i, bool) and 0 <= i < self.table.n_irreps

    def _involution(self, i: int) -> int:
        return self.table.conjugate_index(i)

    def label_str(self, i: int) -> str:
        return self.table.irreps[i].name

    def parse_label(self, text: str, what: str = "label") -> int:
        text = text.strip()
        try:
            key: Any = int(text)
        except ValueError:
            key = text
        try:
            return self.table.irrep_index(key)
        except UsageError as exc:
            exc.args = (f"{what}: {exc}",)
            raise

    def _rule(self, i: int, j: int) -> dict[int, Fraction]:
        dims = self.table.dims
        denom = dims[i] * dims[j]
        return {k: Fraction(m * dims[k], denom)
                for k, m in enumerate(self.table.multiplicities(i, j)) if m}

    def _dimension(self, x: int) -> int:
        return self.table.dims[x]


def finite_group_dual(table: CharacterTable) -> FiniteDual:
    return FiniteDual(table)


# ---------------------------------------------------------------------------
# Finite products
# ---------------------------------------------------------------------------


_UNBUILT = object()


class ProductDual(Dual):
    """The dual of a product group: componentwise fusion over factors that are each a Dual.

    A finite product past MAX_U_PRODUCT_WORK labels is refused before they
    are listed, and so is a point fusion past that many, counted from the
    factor fusions before their product is built.
    """

    def __init__(self, factors: Sequence[Dual]):
        if not factors:
            raise UsageError("product requires at least one factor")
        for f in factors:
            if not isinstance(f, Dual):
                raise UsageError(f"product factor {f!r} is not a Dual, the dual of a compact group")
        self.factors = tuple(factors)
        self._table = _UNBUILT
        name = " x ".join(f.name for f in self.factors)
        universe = None
        if all(f.is_finite for f in self.factors):
            size = math.prod(len(f.universe) for f in self.factors)
            if size > MAX_U_PRODUCT_WORK:
                raise CapacityError(f"the product {name} has {size} labels; "
                                    f"the budget is {MAX_U_PRODUCT_WORK}")
            universe = iter_product(*(f.universe for f in self.factors))
        super().__init__(name=name, identity=tuple(f.identity for f in self.factors),
                         universe=universe)

    def _is_label(self, x: Any) -> bool:
        return (isinstance(x, tuple) and len(x) == len(self.factors)
                and all([f._is_label(p) for f, p in zip(self.factors, x)]))

    def _involution(self, x: tuple) -> tuple:
        return tuple(f._involution(p) for f, p in zip(self.factors, x))

    def label_str(self, x: tuple) -> str:
        return "(" + ", ".join(f.label_str(p) for f, p in zip(self.factors, x)) + ")"

    def parse_label(self, text: str, what: str = "label") -> tuple:
        """A label from its factor texts: "a|b", or "(a, b)" as :meth:`label_str` writes it."""
        text = text.strip()
        written = text.startswith("(") and text.endswith(")")
        parts = _split_outside_parentheses(text[1:-1]) if written else text.split("|")
        if len(parts) != len(self.factors):
            raise UsageError(
                f"{what}: label {text!r} has {len(parts)} components, expected "
                f"{len(self.factors)} (write a|b or (a, b))")
        return tuple(f.parse_label(part, what) for f, part in zip(self.factors, parts))

    def spin_sample(self, max_ell: Fraction, what: str) -> ProductSample:
        # lazy also on a finite product, so a caller prices it before walking it
        return ProductSample([f.spin_sample(max_ell, what) for f in self.factors])

    def _rule(self, x: tuple, y: tuple) -> dict[tuple, Fraction]:
        parts = [f._fuse(a, b).items() for f, a, b in zip(self.factors, x, y)]
        _check_fusion_size(self, x, y, math.prod(map(len, parts)))
        out = {}
        for combo in iter_product(*parts):
            label, masses = zip(*combo)
            num = den = 1
            for q in masses:  # one Fraction per label: its gcd is taken once
                num, den = num * q.numerator, den * q.denominator
            out[label] = Fraction(num, den)
        return out

    def _dimension(self, x: tuple) -> int:
        return math.prod(f._dimension(p) for f, p in zip(self.factors, x))

    def character_table(self) -> CharacterTable | None:
        """The product group's table when every factor is table-backed, else None.

        Row x holds :func:`central_function` of the point mass at x over
        dim(x), classes row-major over the factors; the table is validated
        in full like every other.  Built on the first call and kept: later
        calls return the same object.
        """
        if self._table is _UNBUILT:
            tables = _factor_tables(self)
            self._table = None if tables is None else CharacterTable(
                math.prod(t.group_order for t in tables), _class_sizes(tables),
                [(self._dimension(x), [ExactComplex._of(z.m, z.nums, z.den * self._dimension(x))
                                       for z in central_function(self, FiniteFunction.point(x))],
                  "*".join(t.irreps[i].name for t, i in zip(tables, _irreps(self, x))))
                 for x in self.universe],
                name="x".join(t.name for t in tables))
        return self._table


def product_dual(factors: Sequence[Dual]) -> ProductDual:
    return ProductDual(factors)


def _split_outside_parentheses(text: str) -> list[str]:
    """text cut at each comma that no parenthesis encloses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


# ---------------------------------------------------------------------------
# Central (class) functions
# ---------------------------------------------------------------------------


def check_u_series_degree(degree: int) -> None:
    """CapacityError for a su2-hat U-series of degree over MAX_U_SERIES_DEGREE."""
    if degree > MAX_U_SERIES_DEGREE:
        raise CapacityError(f"a su2-hat U-series of degree {shown(degree)} exceeds the budget "
                            f"{MAX_U_SERIES_DEGREE}")


def _factor_tables(dual: Hypergroup) -> list[CharacterTable] | None:
    """The tables behind a dual, one per finite factor of a (nested) product, else None."""
    if isinstance(dual, FiniteDual):
        return [dual.table]
    if isinstance(dual, ProductDual):
        tables = [_factor_tables(f) for f in dual.factors]
        return None if None in tables else [t for ts in tables for t in ts]
    return None


def _irreps(dual: Hypergroup, x: Label) -> tuple[int, ...]:
    """The irrep index of x in each of :func:`_factor_tables`."""
    if isinstance(dual, ProductDual):
        return tuple(i for f, p in zip(dual.factors, x) for i in _irreps(f, p))
    return (x,)


def _class_sizes(tables: Sequence[CharacterTable]) -> list[int]:
    """The class sizes of the product group, classes row-major over the factors."""
    return [math.prod(sizes) for sizes in iter_product(*(t.class_sizes for t in tables))]


def central_function(dual: Hypergroup, v: FiniteFunction) -> tuple[ExactComplex, ...]:
    """The class values of sum_pi v(pi) d_pi chi_pi, the central function behind v.

    ``dual`` is a :class:`FiniteDual` or a product of them, nested or not;
    a finite dual is the product of one factor.  The tuple holds one exact
    value per conjugacy class, classes row-major over the factors.  The
    integer weights L' v(pi) d_pi, over their common denominator L', form
    an array with one axis per factor table; each table's integer array,
    carried into Q(zeta_m) (m the lcm of the tables' orders) by
    zeta_(m_i) = zeta_m^(m/m_i), contracts away its irrep axis in turn, so
    no product table is built.
    """
    tables = _factor_tables(dual)
    if tables is None:
        raise UsageError(f"no class-function evaluation for {dual!r}")
    dual.check_labels(v.support)
    field = cyclotomic_field(math.lcm(*(t.cyclotomic for t in tables)))
    den = math.lcm(*(q.denominator for _, q in v.items()))
    # axes: one per table's irreps, then the classes contracted so far, then Q(zeta_m)
    sums = np.zeros([t.n_irreps for t in tables] + [1, field.degree], dtype=object)
    for x, q in v.items():
        parts = _irreps(dual, x)
        sums[(*parts, 0, 0)] = q.numerator * (den // q.denominator) * math.prod(
            t.dims[i] for t, i in zip(tables, parts))
    square = field.mult.reshape(-1, field.degree).astype(object)
    for t in tables:
        lift = field.reduce[np.arange(t._field.degree) * (field.m // t.cyclotomic)]
        values = t._values.astype(object) @ lift.astype(object)  # (irreps, classes, degree)
        # the leading irrep axis against the table: one field product per pair of classes
        outer = np.moveaxis(np.tensordot(sums, values, axes=(0, 0)), -3, -2)
        sums = outer.reshape(*outer.shape[:-4], -1, field.degree ** 2) @ square
    scale = den * math.prod(t.scale for t in tables)
    return tuple(ExactComplex._of(field.m, row, scale) for row in sums)
