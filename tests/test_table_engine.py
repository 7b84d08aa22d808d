"""The integer character-table engine against the defining loops, and table parsing."""

import functools
import json
import math
import random
import time
from fractions import Fraction
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import (
    CharacterTable,
    CapacityError,
    ExactComplex,
    FiniteFunction,
    InvalidTableError,
    a_norm_exact_finite,
    builtin_table,
    central_function,
    check_axioms,
    finite_group_dual,
    load_character_table,
    parse_character_table,
    product_dual,
)
from hypergroups.cli import run
from hypergroups.core import cyclotomic_polynomial
from hypergroups.duals import BUILTIN_TABLES
from oracles import inner_loops, kronecker_table, multiplicity_loops, validate_loops

FIXTURES = Path(__file__).parent / "tables"
BUNDLED = {name: builtin_table(name) for name in BUILTIN_TABLES}
# exact tables in Q(zeta_3) and Q(zeta_5), test fixtures rather than bundled tables
CYCLOTOMIC = {name: load_character_table(FIXTURES / f"{name}.json") for name in ("z3", "z5", "a4")}
ALL = {**BUNDLED, **CYCLOTOMIC}


def tensor_of(*names: str) -> CharacterTable:
    return kronecker_table(*(ALL[name] for name in names))


PRODUCTS = [("z2", "z4"), ("s3", "z4"), ("s3", "q8"), ("q8", "z4"), ("z4", "z4"),
            ("q8", "q8"), ("s3", "q8", "z2"), ("z2", "z2", "z4"),
            ("z3", "z5"), ("a4", "z4"), ("z5", "s3")]
TABLES = [(name,) for name in ALL] + PRODUCTS


def table_args(table: CharacterTable, row: int = 0, col: int = 0, shift=0) -> tuple:
    """Constructor arguments of a table, with ``shift`` added to one entry."""
    irreps = [(r.dim, list(r.values), r.name) for r in table.irreps]
    irreps[row][1][col] = irreps[row][1][col] + shift
    return table.group_order, table.class_sizes, irreps


def z5_float_table(corrupt: complex = 0j) -> tuple:
    """Arguments of the order-5 cyclic table, in float values, one entry shifted."""
    w = [complex(math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5))
         for k in range(5)]
    irreps = [(1, [w[(j * k) % 5] for k in range(5)], f"chi{j}") for j in range(5)]
    irreps[2][1][3] += corrupt
    return 5, [1] * 5, irreps


def build_both(args, monkeypatch):
    """(engine, loops): the table or the InvalidTableError message, from each validator."""
    outcomes = []
    for validate in (CharacterTable._validate, validate_loops):
        monkeypatch.setattr(CharacterTable, "_validate", validate)
        try:
            table = CharacterTable(*args, name="t")
            outcomes.append((table.trivial_index, table._conjugate))
        except InvalidTableError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestEngineMatchesLoops:
    @pytest.mark.parametrize("names", TABLES, ids="x".join)
    def test_gram_trivial_and_conjugates(self, names):
        table = tensor_of(*names)
        gram = table._gram()
        for i in range(table.n_irreps):
            for j in range(i, table.n_irreps):
                assert ExactComplex._of(table.cyclotomic, gram[i, j], table.scale ** 2) \
                    == inner_loops(table, i, j)
        assert table._validate() == validate_loops(table)
        assert table._values.dtype == np.int64

    @pytest.mark.parametrize("names", TABLES, ids="x".join)
    def test_every_multiplicity(self, names):
        """All n^3 against the factor loops, m((a,b),(c,d),(e,f)) = m(a,c,e) m(b,d,f),
        and a sample of triples against the product's own loops."""
        table = tensor_of(*names)
        factors = [ALL[name] for name in names]
        loops = [{t: multiplicity_loops(f, *t) for t in product(range(f.n_irreps), repeat=3)}
                 for f in factors]
        shapes = [range(f.n_irreps) for f in factors]
        flat = {parts: i for i, parts in enumerate(product(*shapes))}
        for (i_parts, i), (j_parts, j) in product(flat.items(), repeat=2):
            got = table.multiplicities(i, j)
            want = [math.prod(loop[(a, b, c)] for loop, a, b, c in
                              zip(loops, i_parts, j_parts, k_parts))
                    for k_parts in flat]
            assert got == want
        rng = random.Random(7)
        for _ in range(40):
            i, j, k = (rng.randrange(table.n_irreps) for _ in range(3))
            assert table.multiplicity(i, j, k) == multiplicity_loops(table, i, j, k)

    def test_z4_has_gaussian_values_and_conjugate_rows(self):
        z4 = BUNDLED["z4"]
        assert z4.cyclotomic == 4 and z4._values[..., 1].any()
        assert z4._validate() == (0, (0, 3, 2, 1))

    def test_product_of_two_fields_lives_in_their_lcm(self):
        z3xz5 = tensor_of("z3", "z5")
        assert z3xz5.cyclotomic == 15 and z3xz5._values.shape == (15, 15, 8)
        assert check_axioms(finite_group_dual(z3xz5), range(15)).ok

    def test_product_past_the_field_budget_is_refused(self):
        def cyclic(n: int) -> CharacterTable:
            roots = [ExactComplex.cyclotomic(n, [0] * k + [1]) for k in range(n)]
            return CharacterTable(n, [1] * n, [(1, [roots[j * k % n] for k in range(n)])
                                               for j in range(n)], name=f"z{n}")

        z5, z7, z9 = (cyclic(n) for n in (5, 7, 9))
        z5xz7 = kronecker_table(z5, z7)
        assert z5xz7.cyclotomic == 35 and z5xz7._values.shape[2] == 24
        # Q(zeta_315) has degree 4 * 6 * 6 = 144, over the budget of 64
        with pytest.raises(CapacityError, match="order 315 has degree over 64"):
            kronecker_table(z5xz7, z9)
        prod = product_dual([finite_group_dual(t) for t in (z5, z7, z9)])
        with pytest.raises(CapacityError, match="order 315 has degree over 64"):
            central_function(prod, FiniteFunction.point(prod.identity))

    @pytest.mark.parametrize("name", sorted(CYCLOTOMIC))
    def test_cyclotomic_fixtures_pass_the_axioms(self, name):
        table = CYCLOTOMIC[name]
        assert table.cyclotomic == {"z3": 3, "z5": 5, "a4": 3}[name]
        assert check_axioms(finite_group_dual(table), range(table.n_irreps)).ok

    def test_product_table_is_validated_in_full(self, monkeypatch):
        prod = product_dual([finite_group_dual(ALL[name]) for name in ("s3", "q8", "z2")])
        calls = []
        validate = CharacterTable._validate
        monkeypatch.setattr(CharacterTable, "_validate",
                            lambda self: calls.append(self.name) or validate(self))
        prod.character_table()
        assert calls == ["s3xq8xz2"]


def spec_names(spec) -> list[str]:
    """The table names of a product spec: a name, or a tuple of specs (a nested product)."""
    return [spec] if isinstance(spec, str) else [n for part in spec for n in spec_names(part)]


def spec_dual(spec):
    if isinstance(spec, str):
        return finite_group_dual(ALL[spec])
    return product_dual([spec_dual(part) for part in spec])


@functools.cache
def dual_and_oracle(spec) -> tuple:
    """The product dual of a spec and the dual of its Kronecker table."""
    return spec_dual(spec), finite_group_dual(kronecker_table(*map(ALL.get, spec_names(spec))))


NESTED = (("s3", "z4"), "z2")
CLASS_PRODUCTS = [("s3", "z4"), ("s3", "q8", "z2"), ("z3", "z5"), ("a4", "z4"), NESTED]


def spec_id(spec: tuple) -> str:
    return "x".join(part if isinstance(part, str) else f"({spec_id(part)})" for part in spec)


class TestClassFunctionsFromFactorTables:
    """Class values contracted from the factor tables against one Kronecker table."""

    @given(spec=st.sampled_from(CLASS_PRODUCTS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_contraction_matches_the_kronecker_table(self, spec, data):
        prod, oracle = dual_and_oracle(spec)
        # the universe runs row-major over the factors, as the oracle's rows do
        values = data.draw(st.dictionaries(
            st.integers(0, len(prod.universe) - 1),
            st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=6))
        v = FiniteFunction({prod.universe[i]: q for i, q in values.items()})
        flat = FiniteFunction(values)
        assert central_function(prod, v) == central_function(oracle, flat)
        got, want = a_norm_exact_finite(prod, v), a_norm_exact_finite(oracle, flat)
        assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("spec", PRODUCTS + [NESTED], ids=spec_id)
    def test_character_table_is_the_kronecker_table(self, spec):
        prod, oracle = dual_and_oracle(spec)
        table = prod.character_table()
        assert table.to_json_dict() == oracle.table.to_json_dict()
        assert (table.trivial_index, table._conjugate) == (
            oracle.table.trivial_index, oracle.table._conjugate)


def s3_args(row: int, col: int, value) -> tuple:
    values = [[1, 1, 1], [1, -1, 1], [2, 0, -1]]
    values[row][col] = value
    return 6, [1, 3, 2], [(1, values[0], "triv"), (1, values[1], "sgn"), (2, values[2], "rho")]


_gaussian = st.builds(
    lambda re, im: ExactComplex(re, im),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))


class TestCorruptedTables:
    @given(which=st.sampled_from(BUILTIN_TABLES), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_message_from_both_engines(self, which, data):
        table = BUNDLED[which]
        row = data.draw(st.integers(0, table.n_irreps - 1))
        col = data.draw(st.integers(0, len(table.class_sizes) - 1))
        value = data.draw(_gaussian)
        irreps = [(r.dim, list(r.values), r.name) for r in table.irreps]
        irreps[row][1][col] = value
        with pytest.MonkeyPatch.context() as monkeypatch:
            engine, loops = build_both((table.group_order, table.class_sizes, irreps),
                                       monkeypatch)
        assert engine == loops

    @pytest.mark.parametrize("row,col,value", [
        (2, 2, 1), (1, 1, 1), (0, 2, -1), (2, 1, ExactComplex(Fraction(0), Fraction(1))),
        (1, 2, ExactComplex(Fraction(1), Fraction(1, 3))),
    ])
    def test_named_failures(self, row, col, value, monkeypatch):
        engine, loops = build_both(s3_args(row, col, value), monkeypatch)
        assert isinstance(engine, str) and engine == loops

    def test_huge_denominator_takes_the_object_path(self, monkeypatch):
        dtypes = []
        validate = CharacterTable._validate

        def spy(self):
            dtypes.append(self._values.dtype)
            return validate(self)

        monkeypatch.setattr(CharacterTable, "_validate", spy)
        value = ExactComplex(Fraction(-1), Fraction(1, 2 ** 32 + 15))
        with pytest.raises(InvalidTableError) as engine:
            CharacterTable(*s3_args(2, 2, value))
        assert dtypes == [object]
        monkeypatch.setattr(CharacterTable, "_validate", validate_loops)
        with pytest.raises(InvalidTableError) as loops:
            CharacterTable(*s3_args(2, 2, value))
        assert str(engine.value) == str(loops.value)
        assert "fail orthogonality" in str(engine.value)

    def test_multiplicity_failure_names_the_same_triple(self, monkeypatch):
        # a row whose products do not decompose into integer multiplicities,
        # let through by a validator that checks nothing
        monkeypatch.setattr(CharacterTable, "_validate", lambda self: (0, (0, 1, 2)))
        bad = CharacterTable(*s3_args(2, 2, Fraction(-1, 3)))
        for i, j in product(range(3), repeat=2):
            try:
                got = bad.multiplicities(i, j)
            except InvalidTableError as exc:
                got = str(exc)
            try:
                want = [multiplicity_loops(bad, i, j, k) for k in range(3)]
            except InvalidTableError as exc:
                want = str(exc)
            assert got == want
        with pytest.raises(InvalidTableError, match=r"multiplicity \(2,2,0\)"):
            bad.multiplicities(2, 2)

    def test_z5_accepts_and_rejects_alike(self, monkeypatch):
        z5 = CYCLOTOMIC["z5"]
        engine, loops = build_both(table_args(z5), monkeypatch)
        assert engine == loops == (0, (0, 4, 3, 2, 1))
        for shift in (Fraction(1, 1000), ExactComplex(0, Fraction(1, 1000)), Fraction(1, 2),
                      ExactComplex.cyclotomic(5, [0, 1])):
            engine, loops = build_both(table_args(z5, 2, 3, shift), monkeypatch)
            assert isinstance(engine, str) and engine == loops

    def test_z5_multiplicities(self):
        z5 = CYCLOTOMIC["z5"]
        for i, j in product(range(5), repeat=2):
            assert z5.multiplicities(i, j) == [multiplicity_loops(z5, i, j, k)
                                               for k in range(5)]

    @given(which=st.sampled_from(sorted(ALL)), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_coefficient_moved_by_one_over_l(self, which, data):
        table = ALL[which]
        row = data.draw(st.integers(0, table.n_irreps - 1))
        col = data.draw(st.integers(0, len(table.class_sizes) - 1))
        k = data.draw(st.integers(0, table._values.shape[2] - 1))
        step = Fraction(data.draw(st.sampled_from([1, -1])), table.scale)
        shift = ExactComplex.cyclotomic(table.cyclotomic, [0] * k + [step])
        args = table_args(table, row, col, shift)
        with pytest.MonkeyPatch.context() as monkeypatch:
            engine, loops = build_both(args, monkeypatch)
        assert engine == loops
        if not isinstance(engine, str):
            moved = CharacterTable(*args)
            n = moved.n_irreps
            for i, j in product(range(n), repeat=2):
                assert moved.multiplicities(i, j) == [multiplicity_loops(moved, i, j, k)
                                                      for k in range(n)]


class TestFloatsRefused:
    def test_z5_moved_by_1e_7_is_refused(self):
        # the float values of Z5, one entry moved by 1e-7: exact tables take no floats
        with pytest.raises(InvalidTableError, match=r"irreps\[0\]\.values\[0\]: .*got complex"):
            CharacterTable(*z5_float_table(1e-7), name="z5")

    def test_z5_moved_by_1e_7_exits_3(self, tmp_path, capsys):
        _, classes, irreps = z5_float_table(1e-7)
        doc = {"name": "z5", "group_order": 5, "classes": classes,
               "irreps": [{"dim": d, "name": n, "values": [[v.real, v.imag] for v in values]}
                          for d, values, n in irreps]}
        path = tmp_path / "z5.json"
        path.write_text(json.dumps(doc))
        assert run(["axioms", "--dual", str(path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-table"
        assert "irreps[0].values[0]: bad rational: exact rational expected, got float" \
            in err["message"]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    for m in range(1, 61):
        total = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                total = _poly_mul(total, cyclotomic_polynomial(d))
        assert total == [-1] + [0] * (m - 1) + [1]


# ---------------------------------------------------------------------------
# Parsing: malformed JSON tables raise InvalidTableError naming the path
# ---------------------------------------------------------------------------


def bundled_doc(name: str) -> dict:
    text = resources.files("hypergroups.tables").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def s3_doc(**edits) -> dict:
    doc = bundled_doc("s3")
    for path, value in edits.items():
        node = doc
        *parents, last = path.split(".")
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        node[int(last) if last.isdigit() else last] = value
    return doc


class TestParseTypes:
    @pytest.mark.parametrize("path,value,where", [
        ("classes", 5, "classes"),
        ("irreps", 5, "irreps"),
        ("irreps.2.values", 3, "irreps[2].values"),
        ("irreps.2.dim", "2", "irreps[2].dim"),
        ("group_order", "6", "group_order"),
        ("irreps.2.dim", 2.5, "irreps[2].dim"),
        ("irreps.2.dim", 2.0, "irreps[2].dim"),
        ("irreps.1.dim", True, "irreps[1].dim"),
        ("group_order", 6.9, "group_order"),
        ("classes.1", 3.7, "classes[1]"),
        ("classes.1", "3", "classes[1]"),
        ("irreps.0.name", 5, "irreps[0].name"),
        ("irreps.0.name", None, "irreps[0].name"),
        ("name", ["s3"], "name"),
    ])
    def test_wrong_type_names_its_path(self, path, value, where):
        with pytest.raises(InvalidTableError, match=r": " + where.replace("[", r"\[")
                           .replace("]", r"\]") + ": expected"):
            parse_character_table(s3_doc(**{path: value}))

    def test_out_of_float_range_rational_in_a_float_table(self):
        # the float component is refused, naming its path; the huge rational is exact
        doc = s3_doc(**{"irreps.2.values.1": [0.0, 0], "irreps.2.values.2": ["1e400", 0]})
        with pytest.raises(InvalidTableError,
                           match=r"irreps\[2\]\.values\[1\]: .*got float: 0\.0"):
            parse_character_table(doc)

    def test_float_table_of_an_order_past_float_range(self):
        doc = {"group_order": 10 ** 400, "classes": [10 ** 400],
               "irreps": [{"dim": 10 ** 200, "values": [[1e200, 0]]}]}
        with pytest.raises(InvalidTableError,
                           match=r"irreps\[0\]\.values\[0\]: .*got float: 1e\+200"):
            parse_character_table(doc)

    @pytest.mark.parametrize("edits,message", [
        ({"cyclotomic": 5}, r"irreps\[0\]\.values\[0\]: expected a list of 5 components"),
        ({"cyclotomic": 0}, "cyclotomic must be positive"),
        ({"cyclotomic": True}, "cyclotomic: expected an integer, got bool"),
        ({"cyclotomic": 2.0}, "cyclotomic: expected an integer, got float"),
    ])
    def test_cyclotomic_key_is_typed(self, edits, message):
        with pytest.raises(InvalidTableError, match=message):
            parse_character_table(s3_doc(**edits))

    def test_cyclotomic_field_over_budget_is_refused_at_once(self):
        # phi(127) = 126 is over the budget of 64
        doc = {"group_order": 1, "classes": [1], "cyclotomic": 127,
               "irreps": [{"dim": 1, "values": [[1] + [0] * 126]}]}
        with pytest.raises(CapacityError, match="order 127 has degree over 64"):
            parse_character_table(doc)
        start = time.perf_counter()
        doc["cyclotomic"] = 10 ** 12
        with pytest.raises(InvalidTableError, match="expected a list of 1000000000000 components"):
            parse_character_table(doc)
        with pytest.raises(CapacityError, match="degree over 64"):
            ExactComplex.cyclotomic(10 ** 12, [1])
        assert time.perf_counter() - start < 1.0

    def test_declared_field_matches_the_pair_form(self):
        # [re, im] is c_0 + c_1 zeta_4; with "cyclotomic": 4 the same table has four components
        doc = bundled_doc("z4")
        doc["cyclotomic"] = 4
        for row in doc["irreps"]:
            row["values"] = [pair + [0, 0] for pair in row["values"]]
        table = parse_character_table(doc)
        assert table.irreps == BUNDLED["z4"].irreps
        assert parse_character_table(table.to_json_dict()).irreps == table.irreps

    def test_cli_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(s3_doc(**{"irreps.2.dim": "2"})))
        assert run(["axioms", "--dual", str(path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-table"
        assert "irreps[2].dim" in err["message"]


def _nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated_table(draw):
    doc = bundled_doc(draw(st.sampled_from(BUILTIN_TABLES)))
    nodes = [(path, node) for path, node in _nodes(doc) if path]
    kind = draw(st.sampled_from(["drop", "retype", "renumber", "truncate"]))
    if kind == "drop":
        nodes = [(p, n) for p, n in nodes if isinstance(p[-1], str)]
    elif kind == "renumber":
        nodes = [(p, n) for p, n in nodes
                 if isinstance(n, (int, float)) and not isinstance(n, bool)]
    elif kind == "truncate":
        nodes = [(p, n) for p, n in nodes if isinstance(n, list) and n]
    path, node = draw(st.sampled_from(nodes))
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "retype":
        parent[path[-1]] = draw(_json_values.filter(lambda v: type(v) is not type(node)))
    elif kind == "renumber":
        parent[path[-1]] = draw(st.integers(-3, 12) | st.integers(-10 ** 30, 10 ** 30)
                                | st.sampled_from([node + 1, node - 1, -node]))
    else:
        parent[path[-1]] = node[:draw(st.integers(0, len(node) - 1))]
    return doc


class TestParseProperty:
    @given(doc=mutated_table())
    @settings(max_examples=300, deadline=None)
    def test_parses_or_raises_invalid_table(self, doc):
        try:
            parse_character_table(doc)
        except InvalidTableError:
            pass
