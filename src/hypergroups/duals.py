"""Concrete duals of compact groups as commutative discrete hypergroups.

Three families are provided:

* :func:`su2_dual` -- the dual of SU(2).  Labels are nonnegative integers
  n = 2 * spin, fusion follows the Clebsch-Gordan decomposition, and the
  Haar mass of label n is (n + 1)^2.
* :func:`finite_group_dual` -- the dual of a finite group described by a
  :class:`CharacterTable`.  Labels are irrep indices; tensor multiplicities
  are exact character inner products, one integer contraction per pair.
* :func:`product_dual` -- finite products with componentwise fusion.

Fusion coefficients are always exact rationals.  Character tables carry
either exact Gaussian-rational values or floats; in the float lane tensor
multiplicities are rounded to integers within 1e-6 and re-verified.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product as iter_product
from pathlib import Path
from typing import Any

import numpy as np

from . import su2num
from .core import (
    EXACT,
    FLOAT,
    INT64_LIMIT,
    MAX_U_PRODUCT_WORK,
    MAX_U_SERIES_DEGREE,
    CapacityError,
    FiniteFunction,
    Hypergroup,
    InvalidTableError,
    Label,
    LabelDomainError,
    UsageError,
    _support_product_loops,
    exact,
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
        return cls(exact(value, "character value"))

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

    Integer form.  Beside its :class:`Irrep` values an exact table keeps one
    common denominator L (``scale``) of every real and imaginary part, the
    integer matrices Re = L re and Im = L im (a row per irrep, a column per
    class) and the class sizes s, so the character matrix is
    X = (Re + i Im) / L.  Every check is a Gaussian-integer contraction over
    the classes, computed as products of real integer matrices:

        L^2 |G| <chi_i, chi_j>  = (Xs diag(s) Xs^H)[i, j],      Xs = L X,
        L^3 |G| m(i, j, k)      = sum_c s_c Xs_ic Xs_jc conj(Xs_kc).

    With M the largest |entry| of Re and Im, a term of the first sum has
    real and imaginary parts of at most 2 s_c M^2 and one of the second at
    most 4 s_c M^3, so every product, entry and partial sum is bounded by
    4 |G| M^3 (M >= 1).  So are the targets |G| L^2 and |G| L^3, since the
    identity column holds dim L >= L.  The arrays are int64 when
    4 |G| M^3 < 2^63 and Python-int object arrays otherwise.  A float-lane
    table keeps float64 matrices with L = 1 and runs the same products,
    compared within MULTIPLICITY_TOLERANCE.  The defining loops stay as
    :meth:`_inner_loops`, :meth:`_multiplicity_loops` and
    :meth:`_validate_loops`, the oracles the tests compare against.
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
        lane = EXACT
        for idx, entry in enumerate(irreps):
            dim, values = entry[0], entry[1]
            irrep_name = entry[2] if len(entry) > 2 and entry[2] else f"pi{idx}"
            _typed(dim, int, f"{name}: irreps[{idx}].dim")
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
            rows.append(Irrep(dim, tuple(coerced), irrep_name))
        if lane == FLOAT:
            rows = [Irrep(r.dim, tuple(
                _complex_value(v.re, v.im, f"{name}: irreps[{i}].values[{c}]")
                if isinstance(v, ExactComplex) else v for c, v in enumerate(r.values)), r.name)
                    for i, r in enumerate(rows)]
        self.lane = lane
        self.irreps = tuple(rows)
        if not self.irreps:
            raise InvalidTableError(f"{name}: no irreps")
        if sum(r.dim * r.dim for r in self.irreps) != self.group_order:
            raise InvalidTableError(
                f"{name}: sum of squared dimensions is "
                f"{sum(r.dim * r.dim for r in self.irreps)}, expected {self.group_order}")
        if lane == FLOAT and self.group_order > sys.float_info.max:
            # class sizes and dimensions are smaller, so all of them convert
            raise InvalidTableError(
                f"{name}: group order {self.group_order} is out of float range, "
                f"which a table with float values needs")

        self._check_first_column()
        self._re, self._im, self.scale = self._integer_form()
        self._dims = np.array(self.dims)
        self._sizes = np.array(self.class_sizes, dtype=self._re.dtype)
        self.trivial_index, self._conjugate = self._validate()

    # -- the integer form -----------------------------------------------------

    def _integer_form(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(Re, Im, L) of the class docstring; float64 matrices and L = 1 in the float lane."""
        if self.lane == FLOAT:
            return (np.array([[v.real for v in r.values] for r in self.irreps]),
                    np.array([[v.imag for v in r.values] for r in self.irreps]), 1)
        parts = [(v.re, v.im) for r in self.irreps for v in r.values]
        scale = math.lcm(*(q.denominator for pair in parts for q in pair))
        re = [q.numerator * (scale // q.denominator) for q, _ in parts]
        im = [q.numerator * (scale // q.denominator) for _, q in parts]
        top = max(map(abs, re + im))
        kind = np.int64 if 4 * self.group_order * top ** 3 < INT64_LIMIT else object
        shape = (self.n_irreps, len(self.class_sizes))
        return (np.array(re, dtype=kind).reshape(shape),
                np.array(im, dtype=kind).reshape(shape), scale)

    def _gram(self) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of L^2 |G| <chi_i, chi_j>, one Gram product."""
        re, im = self._re, self._im
        sre, sim = re * self._sizes, im * self._sizes
        return sre @ re.T + sim @ im.T, sim @ re.T - sre @ im.T

    def _rows_equal(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """Mask of the rows equal to (re, im); within the tolerance in the float lane."""
        if self.lane == EXACT:
            return (self._re == re).all(axis=1) & (self._im == im).all(axis=1)
        close = np.hypot(self._re - re, self._im - im) <= MULTIPLICITY_TOLERANCE
        return close.all(axis=1)

    def _validate(self) -> tuple[int, tuple[int, ...]]:
        """Orthogonality, the trivial row and the conjugate rows; (trivial, conjugates)."""
        with np.errstate(over="ignore", invalid="ignore"):
            gram_re, gram_im = self._gram()
            n, order = self.n_irreps, self.group_order
            target = np.eye(n, dtype=gram_re.dtype) * (order * self.scale * self.scale)
            if self.lane == EXACT:
                bad = (gram_re != target) | (gram_im != 0)
            else:
                bad = ~(np.hypot(gram_re - target, gram_im)
                        <= MULTIPLICITY_TOLERANCE * order)
            failing = np.argwhere(np.triu(bad))
            if len(failing):
                i, j = failing[0].tolist()
                self._orthogonality_error(i, j, self._complex(gram_re[i, j], gram_im[i, j], 2))

            one = np.full(len(self.class_sizes), self.scale, dtype=self._re.dtype)
            trivial = np.flatnonzero((self._dims == 1) & self._rows_equal(one, 0 * one))
            if len(trivial) != 1:
                raise InvalidTableError(
                    f"{self.name}: expected exactly one trivial irrep, found {len(trivial)}")
            conjugates = tuple(
                self._conjugate_of(i, np.flatnonzero(
                    (self._dims == self._dims[i]) & self._rows_equal(self._re[i], -self._im[i])
                ).tolist())
                for i in range(n))
        return int(trivial[0]), conjugates

    def _complex(self, re: Any, im: Any, power: int) -> Any:
        """The value (re + i im) / L^power: exact, or a complex in the float lane."""
        if self.lane == FLOAT:
            return complex(re, im)
        denom = self.scale ** power
        return ExactComplex(Fraction(int(re), denom), Fraction(int(im), denom))

    # -- validation helpers -------------------------------------------------

    def _check_first_column(self) -> None:
        for i, row in enumerate(self.irreps):
            expected = (ExactComplex(Fraction(row.dim)) if self.lane == EXACT
                        else complex(row.dim))
            if not self._value_eq(row.values[0], expected):
                raise InvalidTableError(
                    f"{self.name}: irreps[{i}] value at the identity class is "
                    f"{row.values[0]!r}, expected the dimension {row.dim}")

    def _orthogonality_error(self, i: int, j: int, value: Any) -> None:
        raise InvalidTableError(
            f"{self.name}: rows {i} ({self.irreps[i].name}) and {j} "
            f"({self.irreps[j].name}) fail orthogonality: "
            f"<chi_{i}, chi_{j}> * |G| = {value!r}")

    def _conjugate_of(self, i: int, hits: list[int]) -> int:
        if not hits:
            raise InvalidTableError(
                f"{self.name}: no conjugate row for irrep {i} ({self.irreps[i].name})")
        if len(hits) > 1:
            raise InvalidTableError(
                f"{self.name}: conjugate row for irrep {i} ({self.irreps[i].name}) is "
                f"ambiguous: rows {hits}")
        return hits[0]

    # -- the defining loops, kept as test oracles ---------------------------

    def _value_eq(self, a: Any, b: Any) -> bool:
        if self.lane == EXACT:
            return a == b
        return abs(a - b) <= MULTIPLICITY_TOLERANCE

    def _class_sum(self, *rows: int) -> Any:
        """sum_c |c| chi_r1(c) ... chi_r(n-1)(c) conj(chi_rn(c)), by the class loop."""
        exact = self.lane == EXACT
        total = _EC_ZERO if exact else 0j
        for c, size in enumerate(self.class_sizes):
            term = ExactComplex(Fraction(size)) if exact else size
            for r in rows[:-1]:
                term = term * self.irreps[r].values[c]
            total = total + term * self.irreps[rows[-1]].values[c].conjugate()
        return total

    def _inner_loops(self, i: int, j: int) -> Any:
        """<chi_i, chi_j> * |G| as an exact complex or complex, by the class loop."""
        return self._class_sum(i, j)

    def _validate_loops(self) -> tuple[int, tuple[int, ...]]:
        """:meth:`_validate` by pairwise loops over rows and values."""
        n, order = self.n_irreps, self.group_order
        for i in range(n):
            for j in range(i, n):
                value = self._inner_loops(i, j)
                expected_re = Fraction(order if i == j else 0)
                if self.lane == EXACT:
                    ok = value.re == expected_re and value.im == 0
                else:
                    ok = abs(value - complex(expected_re)) <= MULTIPLICITY_TOLERANCE * order
                if not ok:
                    self._orthogonality_error(i, j, value)
        one = _EC_ONE if self.lane == EXACT else 1 + 0j
        trivial = [i for i, row in enumerate(self.irreps)
                   if row.dim == 1 and all(self._value_eq(v, one) for v in row.values)]
        if len(trivial) != 1:
            raise InvalidTableError(
                f"{self.name}: expected exactly one trivial irrep, found {len(trivial)}")
        conjugates = tuple(
            self._conjugate_of(i, [j for j, other in enumerate(self.irreps)
                                   if other.dim == row.dim and all(
                                       self._value_eq(a.conjugate(), b)
                                       for a, b in zip(row.values, other.values))])
            for i, row in enumerate(self.irreps))
        return trivial[0], conjugates

    def _multiplicity_loops(self, i: int, j: int, k: int) -> int:
        """:meth:`multiplicity` by the class loop."""
        return self._checked_multiplicity(i, j, k, self._class_sum(i, j, k))

    def _checked_multiplicity(self, i: int, j: int, k: int, total: Any) -> int:
        """total / |G| as a nonnegative integer, for total = |G| m(i, j, k)."""
        if self.lane == EXACT:
            if total.im != 0:
                raise InvalidTableError(
                    f"{self.name}: multiplicity ({i},{j},{k}) is not real: {total!r}")
            m = total.re / self.group_order
            if m.denominator != 1 or m < 0:
                raise InvalidTableError(
                    f"{self.name}: multiplicity ({i},{j},{k}) = {m} is not a "
                    f"nonnegative integer")
            return int(m)
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

    def _tensor_inner(self, i: int, j: int, ks: list[int]) -> list[int]:
        """[m(i, j, k) for k in ks]: one contraction, checked in the order of k.

        The class-vector P = s X_i X_j against every row k: L^3 |G| m(i, j, k)
        is sum_c P_c conj(X_kc), whose real and imaginary parts are the two
        products of the class docstring.  The first k that is not a
        nonnegative integer raises.
        """
        re, im, s = self._re, self._im, self._sizes
        p_re = s * (re[i] * re[j] - im[i] * im[j])
        p_im = s * (re[i] * im[j] + im[i] * re[j])
        total_re = re[ks] @ p_re + im[ks] @ p_im
        total_im = re[ks] @ p_im - im[ks] @ p_re
        if self.lane == EXACT:
            denom = self.group_order * self.scale ** 3
            bad = np.flatnonzero((total_im != 0) | (total_re % denom != 0) | (total_re < 0))
            if len(bad):
                at = bad[0]
                self._checked_multiplicity(
                    i, j, ks[at], self._complex(total_re[at], total_im[at], 3))
            return (total_re // denom).tolist()
        return [self._checked_multiplicity(i, j, k, complex(a, b))
                for k, a, b in zip(ks, total_re.tolist(), total_im.tolist())]

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

    def tensor(self, other: "CharacterTable") -> "CharacterTable":
        """Character table of the direct product of the two groups.

        Row (a, b) and class (c, d) of the product hold chi_a(c) chi_b(d), so
        the product's values are the Kronecker product of the factors'
        Re + i Im over the scale L_1 L_2.  An int64 factor has entries below
        2^21 (4 M^3 < 2^63), so its products cannot overflow.  The result is
        built from its values, as every table is, and validated in full.
        """
        sizes = [a * b for a in self.class_sizes for b in other.class_sizes]
        heads = [(r1.dim * r2.dim, f"{r1.name}*{r2.name}")
                 for r1 in self.irreps for r2 in other.irreps]
        if self.lane == EXACT and other.lane == EXACT:
            kind = object if object in (self._re.dtype, other._re.dtype) else np.int64
            a_re, a_im, b_re, b_im = (x.astype(kind) for x in
                                      (self._re, self._im, other._re, other._im))
            re = np.kron(a_re, b_re) - np.kron(a_im, b_im)
            im = np.kron(a_re, b_im) + np.kron(a_im, b_re)
            scale = self.scale * other.scale
            values = [[ExactComplex(Fraction(a, scale), Fraction(b, scale))
                       for a, b in zip(row_re, row_im)]
                      for row_re, row_im in zip(re.tolist(), im.tolist())]
        else:
            values = np.kron(self._complex_matrix(), other._complex_matrix()).tolist()
        return CharacterTable(self.group_order * other.group_order, sizes,
                              [(d, v, n) for (d, n), v in zip(heads, values)],
                              name=f"{self.name}x{other.name}")

    def _complex_matrix(self) -> np.ndarray:
        return np.array([[_complex_value(v.re, v.im, f"{self.name}: irreps[{i}]")
                          if isinstance(v, ExactComplex) else v for v in r.values]
                         for i, r in enumerate(self.irreps)], dtype=complex)

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


def _complex_value(re: Any, im: Any, where: str) -> complex:
    """complex(re, im) from floats or rationals; a rational out of float range is invalid."""
    try:
        return complex(float(re), float(im))
    except OverflowError as exc:
        raise InvalidTableError(f"{where}: value ({re}, {im}) is out of float range") from exc


def _fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Table parsing
# ---------------------------------------------------------------------------


def _parse_component(raw: Any, where: str) -> Any:
    """A float as it is, anything else read by :func:`exact`; InvalidTableError naming where."""
    if isinstance(raw, float):
        return raw
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

    Values are [re, im] pairs; integer and "p/q" components are read by
    :func:`exact`, and a float component makes its pair a complex, which
    puts the whole table in the float lane.  ``classes``, ``irreps`` and
    ``values`` must be lists and names strings; the group order, class sizes
    and dimensions are typed by the :class:`CharacterTable` constructor.
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
    irreps = []
    for idx, entry in enumerate(_typed(data["irreps"], list, f"{table_name}: irreps")):
        where = f"{table_name}: irreps[{idx}]"
        if not isinstance(entry, dict) or "dim" not in entry or "values" not in entry:
            raise InvalidTableError(f"{where}: expected an object with dim and values")
        irrep_name = _typed(entry.get("name", ""), str, f"{where}.name")
        values = []
        for v_idx, pair in enumerate(_typed(entry["values"], list, f"{where}.values")):
            v_where = f"{where}.values[{v_idx}]"
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InvalidTableError(f"{v_where}: expected an [re, im] pair")
            re, im = (_parse_component(part, v_where) for part in pair)
            values.append(_complex_value(re, im, v_where)
                          if isinstance(re, float) or isinstance(im, float)
                          else ExactComplex(re, im))
        irreps.append((entry["dim"], values, irrep_name))
    return CharacterTable(data["group_order"], classes, irreps, name=table_name)


def load_character_table(path: str | Path) -> CharacterTable:
    """The table in a JSON file: UsageError if it cannot be read, InvalidTableError if bad."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read table file {path}: {exc}") from exc
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
    cancellation: every term is positive).  Work over MAX_U_PRODUCT_WORK is
    refused up front, except that a support product whose pairwise fusion
    loops emit at most that many labels (sparse high labels) takes the
    loops.  Fusion is not memoised, as the universe is infinite.
    """

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
        self.check_labels((x,))
        return Fraction((x + 1) * (x + 1))

    def dimension(self, x: int) -> int:
        self.check_labels((x,))
        return x + 1

    def check_labels(self, labels: Iterable[Any]) -> None:
        # a range of nonnegative integers is valid without a walk
        if isinstance(labels, range) and (not labels or min(labels[0], labels[-1]) >= 0):
            return
        super().check_labels(labels)

    def _haar_sum(self, labels: Collection[int]) -> Fraction:
        if isinstance(labels, range) and labels.step == 1 and labels.start >= 0:
            # (x+1)^2 summed over start <= x < stop
            stop = max(labels.start, labels.stop)
            return Fraction(su2num.sum_squares(stop) - su2num.sum_squares(labels.start))
        return Fraction(sum((x + 1) * (x + 1) for x in labels))

    def _check_u_product(self, A: Collection[int], B: Collection[int]) -> None:
        """Refuse a product up to max A and max B (both nonempty) past MAX_U_PRODUCT_WORK."""
        work = (max(A) + 1) * (max(B) + 1)
        if work > MAX_U_PRODUCT_WORK:
            raise CapacityError(
                f"a su2-hat U-series product up to labels {max(A)} and {max(B)} would do "
                f"{work} multiply-adds; the budget is {MAX_U_PRODUCT_WORK}")

    def _u_coefficients(self, f: FiniteFunction) -> tuple[list[int], int]:
        """Integers a and scale L with a[x] = L f(x) (x+1)."""
        scale = math.lcm(*(v.denominator for _, v in f.items()))
        a = [0] * (max(f.support, default=0) + 1)
        for x, v in f.items():
            a[x] = v.numerator * (scale // v.denominator) * (x + 1)
        return a, scale

    def _convolve_exact(self, f: FiniteFunction, g: FiniteFunction) -> FiniteFunction:
        if not f or not g:
            return FiniteFunction({})
        self._check_u_product(f.support, g.support)
        a, scale_f = self._u_coefficients(f)
        b, scale_g = self._u_coefficients(g)
        c = su2num.u_product(a, b)
        scale = scale_f * scale_g
        return FiniteFunction({z: Fraction(int(c[z]), (z + 1) * scale)
                               for z in np.flatnonzero(c).tolist()})

    def _support_product(self, A: Collection[int], B: Collection[int]) -> frozenset[int]:
        if not A or not B:
            return frozenset()
        if ((max(A) + 1) * (max(B) + 1) > MAX_U_PRODUCT_WORK
                and _fusion_loop_work(A, B) <= MAX_U_PRODUCT_WORK):
            # sparse high labels: fusing each pair emits far fewer labels
            return _support_product_loops(self, A, B)
        self._check_u_product(A, B)

        def indicator(labels: Collection[int]) -> list[int]:
            ones = [0] * (max(labels) + 1)
            for x in labels:
                ones[x] = 1
            return ones

        c = su2num.u_product(indicator(A), indicator(B))
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
        return {k: Fraction(m * dims[k], denom)
                for k, m in enumerate(self.table.multiplicities(i, j)) if m}

    def dimension(self, x: int) -> int:
        self.check_labels((x,))
        return self.table.dims[x]


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
            return (isinstance(x, tuple) and len(x) == arity
                    and all(map(Hypergroup._is_label, self.factors, x)))

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

    def dimension(self, x: tuple) -> int:
        self.check_labels((x,))
        return math.prod(f.dimension(p) for f, p in zip(self.factors, x))

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


def su2_u_coefficients(v: FiniteFunction) -> np.ndarray:
    """The float array v(n) (n + 1) at index n, for v on su2-hat.

    These are the U_n(cos theta) coefficients of the central function behind
    v; :func:`su2num.u_series_eval` evaluates it at cos theta.  A label
    outside su2-hat raises LabelDomainError, a UsageError, and one over
    MAX_U_SERIES_DEGREE CapacityError.
    """
    Su2Dual().check_labels(v.support)
    degree = max(v.support, default=0)
    if degree > MAX_U_SERIES_DEGREE:
        raise CapacityError(
            f"a su2-hat U-series of degree {degree} exceeds the budget {MAX_U_SERIES_DEGREE}")
    coeffs = np.zeros(degree + 1)
    for n, value in v.items():
        coeffs[n] = float(value) * (n + 1)
    return coeffs


def central_function(dual: Hypergroup, v: FiniteFunction) -> tuple[Any, ...]:
    """The class values of sum_pi v(pi) d_pi chi_pi, the central function behind v.

    ``dual`` is a :class:`FiniteDual` or a table-backed :class:`ProductDual`.
    The tuple holds one value per conjugacy class of the table: an
    ExactComplex for an exact table, a complex otherwise.
    """
    table = dual_character_table(dual)
    if table is None:
        raise UsageError(f"no class-function evaluation for {dual!r}")
    dual.check_labels(v.support)
    if isinstance(dual, ProductDual):
        v = FiniteFunction({flat_irrep_index(dual, x): value for x, value in v.items()})
    exact_lane = table.lane == EXACT
    values = []
    for c in range(len(table.class_sizes)):
        if exact_lane:
            total = _EC_ZERO
            for i, coeff in v.items():
                total = total + ExactComplex(coeff * table.dims[i]) * table.irreps[i].values[c]
        else:
            total = 0j  # a float-lane table holds complex values only
            for i, coeff in v.items():
                total += float(coeff) * table.dims[i] * table.irreps[i].values[c]
        values.append(total)
    return tuple(values)
