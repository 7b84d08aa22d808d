"""Concrete duals of compact groups as commutative discrete hypergroups.

Three families are provided:

* :func:`su2_dual` -- the dual of SU(2).  Labels are nonnegative integers
  n = 2 * spin, fusion follows the Clebsch-Gordan decomposition, and the
  Haar mass of label n is (n + 1)^2.
* :func:`finite_group_dual` -- the dual of a finite group described by a
  :class:`CharacterTable`.  Labels are irrep indices; tensor multiplicities
  come from exact character inner products.
* :func:`product_dual` -- finite products with componentwise fusion.

Fusion coefficients are always exact rationals.  Character tables carry
either exact Gaussian-rational values or floats; in the float lane tensor
multiplicities are rounded to integers within 1e-6 and re-verified.
"""

from __future__ import annotations

import json
import math
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import su2num
from .core import (
    EXACT,
    FLOAT,
    FiniteFunction,
    Hypergroup,
    InvalidTableError,
    Label,
    LabelDomainError,
    UsageError,
)

MULTIPLICITY_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# Exact complex scalars for character values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactComplex:
    """A Gaussian rational: exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def coerce(cls, value: Any) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(Fraction(value))
        raise UsageError(f"cannot coerce {value!r} to an exact complex number")

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def as_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


_EC_ZERO = ExactComplex(Fraction(0))
_EC_ONE = ExactComplex(Fraction(1))


# ---------------------------------------------------------------------------
# Character tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Irrep:
    dim: int
    values: tuple[Any, ...]  # ExactComplex (exact lane) or complex (float lane)
    name: str


class CharacterTable:
    """Class sizes and complex character values of a finite group.

    Construction validates the size bookkeeping (class sizes sum to the
    group order, squared dimensions sum to the group order), first-column
    consistency, and row orthogonality; it also locates the trivial irrep
    and the conjugate of every row.  Violations raise
    :class:`InvalidTableError` with the offending rows named.
    """

    def __init__(
        self,
        group_order: int,
        class_sizes: Sequence[int],
        irreps: Sequence[tuple[int, Sequence[Any]] | tuple[int, Sequence[Any], str]],
        *,
        name: str = "table",
    ):
        if group_order <= 0:
            raise InvalidTableError(f"{name}: group order must be positive")
        self.name = name
        self.group_order = int(group_order)
        self.class_sizes = tuple(int(s) for s in class_sizes)
        if any(s <= 0 for s in self.class_sizes):
            raise InvalidTableError(f"{name}: class sizes must be positive")
        if sum(self.class_sizes) != self.group_order:
            raise InvalidTableError(
                f"{name}: class sizes sum to {sum(self.class_sizes)}, "
                f"expected group order {self.group_order}")

        rows: list[Irrep] = []
        lane = EXACT
        for idx, entry in enumerate(irreps):
            dim, values = entry[0], entry[1]
            irrep_name = entry[2] if len(entry) > 2 and entry[2] else f"pi{idx}"
            if dim <= 0:
                raise InvalidTableError(f"{name}: irreps[{idx}] has dimension {dim}")
            if len(values) != len(self.class_sizes):
                raise InvalidTableError(
                    f"{name}: irreps[{idx}] has {len(values)} values for "
                    f"{len(self.class_sizes)} classes")
            coerced = []
            for value in values:
                if isinstance(value, (complex, float)):
                    lane = FLOAT
                    coerced.append(complex(value))
                else:
                    coerced.append(ExactComplex.coerce(value))
            rows.append(Irrep(int(dim), tuple(coerced), irrep_name))
        if lane == FLOAT:
            rows = [
                Irrep(r.dim, tuple(v.as_complex() if isinstance(v, ExactComplex) else v
                                   for v in r.values), r.name)
                for r in rows
            ]
        self.lane = lane
        self.irreps = tuple(rows)
        if not self.irreps:
            raise InvalidTableError(f"{name}: no irreps")
        if sum(r.dim * r.dim for r in self.irreps) != self.group_order:
            raise InvalidTableError(
                f"{name}: sum of squared dimensions is "
                f"{sum(r.dim * r.dim for r in self.irreps)}, expected {self.group_order}")

        self._check_first_column()
        self._check_orthogonality()
        self.trivial_index = self._find_trivial()
        self._conjugate = tuple(self._find_conjugate(i) for i in range(len(self.irreps)))

    # -- validation helpers -------------------------------------------------

    def _value_eq(self, a: Any, b: Any) -> bool:
        if self.lane == EXACT:
            return a == b
        return abs(a - b) <= MULTIPLICITY_TOLERANCE

    def _check_first_column(self) -> None:
        for i, row in enumerate(self.irreps):
            expected = (ExactComplex(Fraction(row.dim)) if self.lane == EXACT
                        else complex(row.dim))
            if not self._value_eq(row.values[0], expected):
                raise InvalidTableError(
                    f"{self.name}: irreps[{i}] value at the identity class is "
                    f"{row.values[0]!r}, expected the dimension {row.dim}")

    def _inner(self, i: int, j: int) -> Any:
        """<chi_i, chi_j> * |G| as an exact complex or complex."""
        if self.lane == EXACT:
            total = _EC_ZERO
            for size, a, b in zip(self.class_sizes, self.irreps[i].values,
                                  self.irreps[j].values):
                total = total + ExactComplex(Fraction(size)) * a * b.conjugate()
            return total
        total = 0j
        for size, a, b in zip(self.class_sizes, self.irreps[i].values,
                              self.irreps[j].values):
            total += size * a * b.conjugate()
        return total

    def _check_orthogonality(self) -> None:
        n = len(self.irreps)
        order = self.group_order
        for i in range(n):
            for j in range(i, n):
                value = self._inner(i, j)
                expected_re = Fraction(order if i == j else 0)
                if self.lane == EXACT:
                    ok = value.re == expected_re and value.im == 0
                else:
                    ok = abs(value - complex(expected_re)) <= MULTIPLICITY_TOLERANCE * order
                if not ok:
                    raise InvalidTableError(
                        f"{self.name}: rows {i} ({self.irreps[i].name}) and {j} "
                        f"({self.irreps[j].name}) fail orthogonality: "
                        f"<chi_{i}, chi_{j}> * |G| = {value!r}")

    def _find_trivial(self) -> int:
        one = _EC_ONE if self.lane == EXACT else 1 + 0j
        hits = [i for i, row in enumerate(self.irreps)
                if row.dim == 1 and all(self._value_eq(v, one) for v in row.values)]
        if len(hits) != 1:
            raise InvalidTableError(
                f"{self.name}: expected exactly one trivial irrep, found {len(hits)}")
        return hits[0]

    def _find_conjugate(self, i: int) -> int:
        row = self.irreps[i]
        hits = []
        for j, other in enumerate(self.irreps):
            if other.dim != row.dim:
                continue
            if all(self._value_eq(a.conjugate(), b)
                   for a, b in zip(row.values, other.values)):
                hits.append(j)
        if not hits:
            raise InvalidTableError(
                f"{self.name}: no conjugate row for irrep {i} ({row.name})")
        if len(hits) > 1:
            raise InvalidTableError(
                f"{self.name}: conjugate row for irrep {i} ({row.name}) is ambiguous: "
                f"rows {hits}")
        return hits[0]

    # -- queries ------------------------------------------------------------

    @property
    def n_irreps(self) -> int:
        return len(self.irreps)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.irreps)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.irreps)

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

    def multiplicity(self, i: int, j: int, k: int) -> int:
        """Multiplicity of irrep k inside the tensor product of irreps i and j.

        Computed as the character inner product (1/|G|) sum over classes of
        |c| chi_i chi_j conj(chi_k); must come out a nonnegative integer.
        """
        if self.lane == EXACT:
            total = _EC_ZERO
            for size, a, b, c in zip(self.class_sizes, self.irreps[i].values,
                                     self.irreps[j].values, self.irreps[k].values):
                total = total + ExactComplex(Fraction(size)) * a * b * c.conjugate()
            if total.im != 0:
                raise InvalidTableError(
                    f"{self.name}: multiplicity ({i},{j},{k}) is not real: {total!r}")
            m = total.re / self.group_order
            if m.denominator != 1 or m < 0:
                raise InvalidTableError(
                    f"{self.name}: multiplicity ({i},{j},{k}) = {m} is not a "
                    f"nonnegative integer")
            return int(m)
        total = 0j
        for size, a, b, c in zip(self.class_sizes, self.irreps[i].values,
                                 self.irreps[j].values, self.irreps[k].values):
            total += size * a * b * c.conjugate()
        m = total / self.group_order
        rounded = round(m.real)
        if abs(m.imag) > MULTIPLICITY_TOLERANCE or abs(m.real - rounded) > MULTIPLICITY_TOLERANCE:
            raise InvalidTableError(
                f"{self.name}: multiplicity ({i},{j},{k}) = {m} does not round "
                f"to an integer within {MULTIPLICITY_TOLERANCE}")
        if rounded < 0:
            raise InvalidTableError(
                f"{self.name}: multiplicity ({i},{j},{k}) rounds to {rounded} < 0")
        return int(rounded)

    def tensor(self, other: "CharacterTable") -> "CharacterTable":
        """Character table of the direct product of the two groups."""
        sizes = [a * b for a in self.class_sizes for b in other.class_sizes]
        irreps = []
        for r1 in self.irreps:
            for r2 in other.irreps:
                values = [_mul_values(a, b) for a in r1.values for b in r2.values]
                irreps.append((r1.dim * r2.dim, values, f"{r1.name}*{r2.name}"))
        return CharacterTable(
            self.group_order * other.group_order, sizes, irreps,
            name=f"{self.name}x{other.name}")

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        def encode(v: Any) -> list[Any]:
            if isinstance(v, ExactComplex):
                return [_fraction_str(v.re), _fraction_str(v.im)]
            return [v.real, v.imag]

        return {
            "name": self.name,
            "group_order": self.group_order,
            "classes": list(self.class_sizes),
            "irreps": [
                {"dim": r.dim, "name": r.name, "values": [encode(v) for v in r.values]}
                for r in self.irreps
            ],
        }


def _mul_values(a: Any, b: Any) -> Any:
    if isinstance(a, ExactComplex) and isinstance(b, ExactComplex):
        return a * b
    aa = a.as_complex() if isinstance(a, ExactComplex) else a
    bb = b.as_complex() if isinstance(b, ExactComplex) else b
    return aa * bb


def _fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Table parsing
# ---------------------------------------------------------------------------


def _parse_component(raw: Any, where: str) -> Any:
    if isinstance(raw, bool):
        raise InvalidTableError(f"{where}: boolean is not a number")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidTableError(f"{where}: bad rational {raw!r} ({exc})") from exc
    if isinstance(raw, float):
        return raw
    raise InvalidTableError(f"{where}: expected int, 'p/q' string or float, got {raw!r}")


def parse_character_table(data: dict[str, Any], *, name: str | None = None) -> CharacterTable:
    """Build a table from its JSON dictionary form.

    Values are [re, im] pairs; integer and "p/q" components are exact,
    float components put the whole table in the float lane.
    """
    if not isinstance(data, dict):
        raise InvalidTableError("table document must be a JSON object")
    table_name = name or data.get("name") or "table"
    for field_name in ("group_order", "classes", "irreps"):
        if field_name not in data:
            raise InvalidTableError(f"{table_name}: missing field {field_name!r}")
    irreps = []
    for idx, entry in enumerate(data["irreps"]):
        where = f"{table_name}: irreps[{idx}]"
        if not isinstance(entry, dict) or "dim" not in entry or "values" not in entry:
            raise InvalidTableError(f"{where}: expected an object with dim and values")
        values = []
        float_seen = False
        parsed = []
        for v_idx, pair in enumerate(entry["values"]):
            v_where = f"{where}.values[{v_idx}]"
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InvalidTableError(f"{v_where}: expected an [re, im] pair")
            re = _parse_component(pair[0], v_where)
            im = _parse_component(pair[1], v_where)
            parsed.append((re, im))
            float_seen = float_seen or isinstance(re, float) or isinstance(im, float)
        for re, im in parsed:
            if float_seen:
                values.append(complex(float(re), float(im)))
            else:
                values.append(ExactComplex(re, im))
        irreps.append((entry["dim"], values, entry.get("name", "")))
    return CharacterTable(data["group_order"], data["classes"], irreps, name=table_name)


def load_character_table(path: str | Path) -> CharacterTable:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidTableError(f"cannot read table file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidTableError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_character_table(data, name=data.get("name") if isinstance(data, dict) else path.stem)


BUILTIN_TABLES = ("z2", "z4", "s3", "q8")


def builtin_table(name: str) -> CharacterTable:
    """One of the bundled example tables: z2, z4, s3, q8."""
    from importlib import resources

    if name not in BUILTIN_TABLES:
        raise UsageError(f"no bundled table {name!r}; choose from {BUILTIN_TABLES}")
    with resources.files("hypergroups.tables").joinpath(f"{name}.json").open() as fh:
        return parse_character_table(json.load(fh), name=name)


# ---------------------------------------------------------------------------
# The dual of SU(2)
# ---------------------------------------------------------------------------


def ell_str(n: int) -> str:
    """Spin notation for the label n = 2*ell."""
    return str(n // 2) if n % 2 == 0 else f"{n}/2"


def _su2_valid(n: Any) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


class Su2Dual(Hypergroup):
    """Dual of SU(2); labels n = 2*spin, Clebsch-Gordan fusion, h(n) = (n+1)^2.

    The exact engine works with U-series.  Write F = sum_x f(x) (x+1) U_x for
    a function f on labels.  Since d_x *_h d_y = (x+1)(y+1)/(z+1) at each z
    of the Clebsch-Gordan range |x-y|, |x-y|+2, .., x+y (the fusion mass
    (z+1)/((x+1)(y+1)) times h(x) h(y) / h(z)), and U_x U_y = sum_z U_z over
    the same range, F G = sum_z (z+1) (f *_h g)(z) U_z.  So weighted
    convolution is one integer U-series product (:func:`su2num.u_product`)
    once the denominators of f and g are cleared, and the support of A*B is
    the nonzero set of the product of the 0/1 indicators of A and B (no
    cancellation: every term is positive).  Fusion is not cached: the rule
    costs less than a lookup would save.
    """

    _CACHES_FUSION = False

    def __init__(self):
        super().__init__(
            name="su2-hat",
            fuse=self._rule,
            involution=lambda n: n,
            identity=0,
            commutative=True,
            universe=None,
            validator=_su2_valid,
            labeler=ell_str,
        )

    @staticmethod
    def _rule(n1: int, n2: int) -> dict[int, Fraction]:
        denom = (n1 + 1) * (n2 + 1)
        return {r: Fraction(r + 1, denom)
                for r in range(abs(n1 - n2), n1 + n2 + 1, 2)}

    def haar(self, x: int) -> Fraction:
        self.check_label(x)
        return Fraction((x + 1) * (x + 1))

    def haar_sum(self, labels: Iterable[int]) -> Fraction:
        total = 0
        for x in labels:
            self.check_label(x)
            total += (x + 1) * (x + 1)
        return Fraction(total)

    def _u_coefficients(self, f: FiniteFunction) -> tuple[list[int], int]:
        """Integers a and scale L with a[x] = L f(x) (x+1), label-checked."""
        for x in f.support:
            self.check_label(x)
        scale = math.lcm(*(v.denominator for _, v in f.items()))
        a = [0] * (max(f.support, default=0) + 1)
        for x, v in f.items():
            a[x] = v.numerator * (scale // v.denominator) * (x + 1)
        return a, scale

    def _convolve_exact(self, f: FiniteFunction, g: FiniteFunction) -> FiniteFunction:
        a, scale_f = self._u_coefficients(f)
        b, scale_g = self._u_coefficients(g)
        if not f or not g:
            return FiniteFunction({})
        c = su2num.u_product(a, b)
        scale = scale_f * scale_g
        return FiniteFunction({z: Fraction(int(c[z]), (z + 1) * scale)
                               for z in np.flatnonzero(c).tolist()})

    def _support_product(self, A: Collection[int], B: Collection[int]) -> frozenset[int]:
        if not A or not B:
            return frozenset()
        for x in (*A, *B):
            self.check_label(x)

        def indicator(labels: Collection[int]) -> list[int]:
            ones = [0] * (max(labels) + 1)
            for x in labels:
                ones[x] = 1
            return ones

        c = su2num.u_product(indicator(A), indicator(B))
        return frozenset(np.flatnonzero(c).tolist())


def su2_dual() -> Su2Dual:
    return Su2Dual()


# ---------------------------------------------------------------------------
# Duals of finite groups
# ---------------------------------------------------------------------------


class FiniteDual(Hypergroup):
    """Dual of a finite group; labels are irrep indices into the table."""

    def __init__(self, table: CharacterTable):
        self.table = table
        n = table.n_irreps
        super().__init__(
            name=f"{table.name}-hat",
            fuse=self._rule,
            involution=table.conjugate_index,
            identity=table.trivial_index,
            commutative=True,
            universe=range(n),
            validator=lambda i: isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n,
            labeler=lambda i: table.irreps[i].name,
        )

    def _rule(self, i: int, j: int) -> dict[int, Fraction]:
        dims = self.table.dims
        denom = dims[i] * dims[j]
        out = {}
        for k in range(self.table.n_irreps):
            m = self.table.multiplicity(i, j, k)
            if m:
                out[k] = Fraction(m * dims[k], denom)
        return out


def finite_group_dual(table: CharacterTable) -> FiniteDual:
    return FiniteDual(table)


# ---------------------------------------------------------------------------
# Finite products
# ---------------------------------------------------------------------------


_UNBUILT = object()


class ProductDual(Hypergroup):
    """Product hypergroup with componentwise fusion and multiplied Haar mass."""

    def __init__(self, factors: Sequence[Hypergroup]):
        if not factors:
            raise UsageError("product requires at least one factor")
        self.factors = tuple(factors)
        self._table = _UNBUILT
        universe = None
        if all(f.is_finite for f in self.factors):
            universe = [tuple(labels) for labels in
                        iter_product(*(f.universe for f in self.factors))]
        arity = len(self.factors)

        def valid(x: Any) -> bool:
            if not isinstance(x, tuple) or len(x) != arity:
                return False
            try:
                for f, part in zip(self.factors, x):
                    f.check_label(part)
            except LabelDomainError:
                return False
            return True

        super().__init__(
            name=" x ".join(f.name for f in self.factors),
            fuse=self._rule,
            involution=lambda x: tuple(f.involution(p) for f, p in zip(self.factors, x)),
            identity=tuple(f.identity for f in self.factors),
            commutative=all(f.commutative for f in self.factors),
            universe=universe,
            validator=valid,
            labeler=lambda x: "(" + ", ".join(
                f.label_str(p) for f, p in zip(self.factors, x)) + ")",
        )

    def _rule(self, x: tuple, y: tuple) -> dict[tuple, Fraction]:
        parts = [f.fuse(a, b).items() for f, a, b in zip(self.factors, x, y)]
        out = {}
        for combo in iter_product(*parts):
            label = tuple(entry[0] for entry in combo)
            mass = Fraction(1)
            for entry in combo:
                mass *= entry[1]
            out[label] = mass
        return out

    def character_table(self) -> CharacterTable | None:
        """Tensor table when every factor is table-backed, else None.

        Built on the first call and kept: later calls return the same object.
        """
        if self._table is _UNBUILT:
            tables = [dual_character_table(f) for f in self.factors]
            table = None
            if all(t is not None for t in tables):
                table = tables[0]
                for t in tables[1:]:
                    table = table.tensor(t)
            self._table = table
        return self._table


def product_dual(factors: Sequence[Hypergroup]) -> ProductDual:
    return ProductDual(factors)


def dual_character_table(H: Hypergroup) -> CharacterTable | None:
    """The character table behind a dual, when there is one."""
    if isinstance(H, FiniteDual):
        return H.table
    if isinstance(H, ProductDual):
        return H.character_table()
    return None


def flat_irrep_index(H: Hypergroup, label: Label) -> int:
    """Row index of a dual label in the dual's (tensor) character table."""
    if isinstance(H, FiniteDual):
        return label
    if isinstance(H, ProductDual):
        idx = 0
        for factor, part in zip(H.factors, label):
            table = dual_character_table(factor)
            if table is None:
                raise UsageError(f"{factor!r} has no character table")
            idx = idx * table.n_irreps + flat_irrep_index(factor, part)
        return idx
    raise UsageError(f"{H!r} has no character table")


# ---------------------------------------------------------------------------
# Central (class) functions
# ---------------------------------------------------------------------------


@dataclass
class ClassFunctionHandle:
    """Evaluates sum_pi v(pi) d_pi chi_pi, the central function behind v.

    For finite duals the handle holds one value per conjugacy class of its
    ``table``; for the dual of SU(2) it evaluates at a maximal-torus angle
    via the Weyl character sin((n+1) theta) / sin(theta).
    """

    kind: str  # "classes" | "torus"
    _evaluate: Callable[[Any], Any]
    class_values: tuple[Any, ...] | None = None
    table: CharacterTable | None = None

    def __call__(self, arg: Any) -> Any:
        return self._evaluate(arg)

    def values(self) -> tuple[Any, ...]:
        if self.class_values is None:
            raise UsageError("a torus handle has no class-value list")
        return self.class_values


def su2_u_coefficients(v: FiniteFunction) -> np.ndarray:
    """The float array v(n) (n + 1) at index n, for v on su2-hat.

    These are the U_n(cos theta) coefficients of the central function behind
    v.  A label outside su2-hat raises LabelDomainError, a UsageError.
    """
    for n in v.support:
        if not _su2_valid(n):
            raise LabelDomainError(f"{n!r} is not a label of su2-hat")
    coeffs = np.zeros(max(v.support, default=0) + 1)
    for n, value in v.items():
        coeffs[n] = float(value) * (n + 1)
    return coeffs


def central_function(dual: Any, v: FiniteFunction) -> ClassFunctionHandle:
    """Handle for the central function with Fourier coefficients v.

    ``dual`` may be a :class:`Su2Dual`, a :class:`FiniteDual`, a
    :class:`CharacterTable`, or a table-backed :class:`ProductDual`.
    """
    if isinstance(dual, Su2Dual):
        coeffs = su2_u_coefficients(v)

        def evaluate(theta: float) -> float:
            x = np.array([np.cos(float(theta))])
            return float(su2num.u_series_eval(coeffs, x)[0])

        return ClassFunctionHandle(kind="torus", _evaluate=evaluate)

    table = dual if isinstance(dual, CharacterTable) else dual_character_table(dual)
    if table is None:
        raise UsageError(f"no class-function evaluation for {dual!r}")
    if isinstance(dual, ProductDual):
        for x in v.support:
            dual.check_label(x)
        v = FiniteFunction({flat_irrep_index(dual, x): value for x, value in v.items()},
                           v.lane)
    for i in v.support:
        if not (isinstance(i, int) and 0 <= i < table.n_irreps):
            raise LabelDomainError(f"{i!r} is not an irrep index of {table.name}")
    exact = table.lane == EXACT and v.lane == EXACT
    values = []
    for c in range(len(table.class_sizes)):
        if exact:
            total = _EC_ZERO
            for i, coeff in v.items():
                total = total + ExactComplex(coeff * table.dims[i]) * table.irreps[i].values[c]
        else:
            total = 0j
            for i, coeff in v.items():
                chi = table.irreps[i].values[c]
                chi = chi.as_complex() if isinstance(chi, ExactComplex) else chi
                total += float(coeff) * table.dims[i] * chi
        values.append(total)
    values = tuple(values)

    def evaluate_class(c: int) -> Any:
        if not (isinstance(c, int) and 0 <= c < len(values)):
            raise UsageError(f"class index {c!r} out of range")
        return values[c]

    return ClassFunctionHandle(kind="classes", _evaluate=evaluate_class,
                               class_values=values, table=table)
