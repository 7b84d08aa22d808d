"""Constructors for concrete duals: SU(2), finite groups, products."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from hypergroups import (
    CapacityError,
    CharacterTable,
    ExactComplex,
    FiniteDual,
    FiniteFunction,
    FiniteMeasure,
    InvalidTableError,
    LabelDomainError,
    UsageError,
    builtin_table,
    central_function,
    check_axioms,
    finite_group_dual,
    load_character_table,
    parse_character_table,
    product_dual,
    su2_dual,
)
from hypergroups import core, duals, su2num
from hypergroups.duals import ProductDual, ell_str
from hypergroups.fourier import a_norm, a_norm_su2

half = Fraction(1, 2)


def z5_table() -> CharacterTable:
    """Cyclic group of order 5; its values are the fifth roots of unity, exact in Q(zeta_5)."""
    return load_character_table(Path(__file__).parent / "tables" / "z5.json")


class TestSu2Dual:
    def test_spot_fusions(self, su2):
        assert su2.fuse(2, 1) == FiniteMeasure({1: Fraction(2, 6), 3: Fraction(4, 6)})
        for n in range(6):
            assert su2.fuse(0, n) == FiniteMeasure.point(n)

    def test_mass_sums_to_one_up_to_spin_six(self, su2):
        for n1 in range(13):
            for n2 in range(13):
                assert su2.fuse(n1, n2).total() == 1

    def test_support_is_stepped_interval(self, su2):
        for n1 in range(9):
            for n2 in range(9):
                expected = tuple(range(abs(n1 - n2), n1 + n2 + 1, 2))
                assert su2.fuse(n1, n2).support == expected

    def test_self_dual_involution(self, su2):
        for n in range(8):
            assert su2.involution(n) == n

    def test_haar_is_squared_dimension(self, su2):
        for n in range(20):
            assert su2.haar(n) == (n + 1) ** 2

    def test_label_strings(self):
        assert ell_str(0) == "0"
        assert ell_str(1) == "1/2"
        assert ell_str(4) == "2"

    def test_label_validation(self, su2):
        for bad in (-1, half, "1", 1.5, True):
            with pytest.raises(LabelDomainError):
                su2.check_labels((bad,))

    def test_fusion_budget_boundary(self, su2, monkeypatch):
        monkeypatch.setattr(duals, "MAX_U_PRODUCT_WORK", 5)
        assert len(su2.fuse(4, 9)) == 5
        with pytest.raises(CapacityError) as info:
            su2.fuse(9, 5)
        assert str(info.value) == "the fusion of 9/2 and 5/2 has 6 labels; the budget is 5"


class TestExactComplex:
    def test_arithmetic(self):
        i = ExactComplex(Fraction(0), Fraction(1))
        assert i * i == ExactComplex(Fraction(-1))
        assert i.conjugate() == ExactComplex(Fraction(0), Fraction(-1))
        assert (i + i.conjugate()) == ExactComplex(Fraction(0))
        assert i.abs_squared() == 1

    def test_coerce(self):
        assert ExactComplex.coerce(3) == ExactComplex(Fraction(3))
        with pytest.raises(UsageError):
            ExactComplex.coerce(1.5)


class TestCharacterTable:
    def test_builtins_validate(self):
        for name, n_irreps in [("z2", 2), ("z4", 4), ("s3", 3), ("q8", 5)]:
            table = builtin_table(name)
            assert table.n_irreps == n_irreps
            assert sum(d * d for d in table.dims) == table.group_order

    def test_orthogonality_failure_names_rows(self):
        with pytest.raises(InvalidTableError, match="orthogonality"):
            CharacterTable(6, [1, 3, 2], [
                (1, [1, 1, 1], "triv"),
                (1, [1, -1, 1], "sgn"),
                (2, [2, 0, 1], "rho"),  # corrupted last value
            ])

    def test_dimension_sum_mismatch(self):
        with pytest.raises(InvalidTableError, match="squared dimensions"):
            CharacterTable(6, [1, 3, 2], [(1, [1, 1, 1]), (1, [1, -1, 1])])

    def test_class_size_mismatch(self):
        with pytest.raises(InvalidTableError, match="class sizes"):
            CharacterTable(6, [1, 3, 3], [
                (1, [1, 1, 1]), (1, [1, -1, 1]), (2, [2, 0, -1])])

    @pytest.mark.parametrize("order,sizes,dims,path", [
        (6.9, [1, 3, 2], [1, 1, 2], "group_order: expected an integer, got float"),
        ("6", [1, 3, 2], [1, 1, 2], "group_order: expected an integer, got str"),
        (True, [1, 3, 2], [1, 1, 2], "group_order: expected an integer, got bool"),
        (6, [1, 3.2, 2.9], [1, 1, 2], r"classes\[1\]: expected an integer, got float"),
        (6, [1, 3, True], [1, 1, 2], r"classes\[2\]: expected an integer, got bool"),
        (6, [1, 3, 2], [1, 1, 2.5], r"irreps\[2\].dim: expected an integer, got float"),
        (6, [1, 3, 2], [True, 1, 2], r"irreps\[0\].dim: expected an integer, got bool"),
    ])
    def test_constructor_requires_integers(self, order, sizes, dims, path):
        # these were truncated by int() before: 6.9 -> 6, 3.2 -> 3, 2.5 -> 2, True -> 1
        rows = [[1, 1, 1], [1, -1, 1], [2, 0, -1]]
        with pytest.raises(InvalidTableError, match="^s3: " + path):
            CharacterTable(order, sizes, [(d, r) for d, r in zip(dims, rows)], name="s3")

    @pytest.mark.parametrize("names,message", [
        (["a", "a", "rho"], r"irreps\[0\] and irreps\[1\] are both named 'a'"),
        (["triv", "pi2", None], r"irreps\[1\] and irreps\[2\] are both named 'pi2'"),
        ([None, "pi0", "rho"], r"irreps\[0\] and irreps\[1\] are both named 'pi0'"),
    ], ids=["explicit", "explicit-then-default", "default-then-explicit"])
    def test_duplicate_irrep_names_refused(self, names, message):
        # a default name pi<idx> (None) collides with an explicit one as any name does
        rows = [(1, [1, 1, 1]), (1, [1, -1, 1]), (2, [2, 0, -1])]
        with pytest.raises(InvalidTableError, match="^s3: " + message):
            CharacterTable(6, [1, 3, 2], [(d, r, n) for (d, r), n in zip(rows, names)],
                           name="s3")

    @pytest.mark.parametrize("size", [0, -1])
    def test_class_sizes_must_be_positive(self, size):
        with pytest.raises(InvalidTableError, match="^s3: class sizes must be positive"):
            CharacterTable(6, [1, 3 - size, 2, size], [
                (1, [1, 1, 1, 1]), (1, [1, -1, 1, 1]), (2, [2, 0, -1, 2])], name="s3")

    def test_equal_rows_fail_orthogonality(self):
        # so a row never has two conjugate rows to choose from
        w = ExactComplex.cyclotomic(3, [0, 1])
        with pytest.raises(InvalidTableError, match=r"rows 1 \(a\) and 2 \(b\) fail orthogonality"):
            CharacterTable(3, [1, 1, 1], [
                (1, [1, 1, 1], "triv"), (1, [1, w, w * w], "a"), (1, [1, w, w * w], "b")])

    def test_row_without_its_conjugate(self):
        # Z4's two complex rows turned within their span: orthonormal, with
        # the identity value 1, but each row's conjugate is no row of the table
        p, q = ["-4/5", "3/5"], ["4/5", "-3/5"]  # (-4 + 3i)/5 and its negative
        rows = {"triv": [[1, 0], [1, 0], [1, 0], [1, 0]], "v": [[1, 0], p, [-1, 0], q],
                "sgn": [[1, 0], [-1, 0], [1, 0], [-1, 0]], "w": [[1, 0], q, [-1, 0], p]}
        with pytest.raises(InvalidTableError, match=r"^z4: no conjugate row for irrep 1 \(v\)"):
            parse_character_table({"name": "z4", "group_order": 4, "classes": [1, 1, 1, 1],
                                   "irreps": [{"name": name, "dim": 1, "values": values}
                                              for name, values in rows.items()]})

    @pytest.mark.parametrize("key", [1.5, None, (0,)])
    def test_irrep_key_of_another_type(self, key):
        with pytest.raises(LabelDomainError, match="^s3: cannot resolve irrep"):
            builtin_table("s3").irrep_index(key)

    @pytest.mark.parametrize("document", [[], "s3", None])
    def test_table_document_must_be_an_object(self, document):
        with pytest.raises(InvalidTableError, match="must be a JSON object"):
            parse_character_table(document)

    def test_unknown_bundled_table(self):
        with pytest.raises(UsageError, match="^no bundled table 's4'"):
            builtin_table("s4")

    def test_missing_trivial_irrep(self):
        i = ExactComplex(Fraction(0), Fraction(1))
        with pytest.raises(InvalidTableError, match="trivial"):
            CharacterTable(2, [1, 1], [
                (1, [1, i], "plus"),
                (1, [1, i.conjugate()], "minus"),
            ])

    def test_conjugate_matching_z4(self):
        z4 = builtin_table("z4")
        assert z4.conjugate_index(0) == 0
        assert z4.conjugate_index(1) == 3
        assert z4.conjugate_index(2) == 2

    def test_z5_conjugates(self):
        z5 = z5_table()
        assert z5.cyclotomic == 5
        assert z5.conjugate_index(1) == 4
        assert z5.conjugate_index(2) == 3

    def test_multiplicities_s3(self):
        s3 = builtin_table("s3")
        rho = 2
        assert [s3.multiplicity(rho, rho, k) for k in range(3)] == [1, 1, 1]
        assert s3.multiplicity(1, 1, 0) == 1  # sgn ⊗ sgn = triv

    def test_first_column_must_be_dimension(self):
        with pytest.raises(InvalidTableError, match="identity class"):
            CharacterTable(2, [1, 1], [(1, [1, 1]), (1, [-1, 1])])

    def test_json_round_trip(self):
        s3 = builtin_table("s3")
        doc = s3.to_json_dict()
        again = parse_character_table(doc)
        assert again.dims == s3.dims
        assert again.names == s3.names
        assert again.irreps == s3.irreps

    def test_parse_rejects_malformed_values(self):
        with pytest.raises(InvalidTableError, match="values\\[1\\]"):
            parse_character_table({
                "group_order": 2, "classes": [1, 1],
                "irreps": [{"dim": 1, "values": [[1, 0], [1]]},
                           {"dim": 1, "values": [[1, 0], [-1, 0]]}],
            })

    def test_parse_rejects_bad_rational(self):
        with pytest.raises(InvalidTableError, match="bad rational"):
            parse_character_table({
                "group_order": 2, "classes": [1, 1],
                "irreps": [{"dim": 1, "values": [["1/0", 0], [1, 0]]},
                           {"dim": 1, "values": [[1, 0], [-1, 0]]}],
            })


class TestFiniteGroupDual:
    def test_s3_fusion(self, s3):
        rho = 2
        assert s3.fuse(rho, rho) == FiniteMeasure(
            {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)})
        assert s3.fuse(1, rho) == FiniteMeasure.point(rho)

    def test_abelian_dual_is_a_group(self, z4):
        for i in range(4):
            for j in range(4):
                mu = z4.fuse(i, j)
                assert len(mu) == 1 and mu.total() == 1

    def test_q8_haar(self, q8):
        assert [q8.haar(i) for i in range(5)] == [1, 1, 1, 1, 4]

    def test_involution_is_conjugation(self, z4):
        assert z4.involution(1) == 3
        assert z4.involution(3) == 1

    def test_z5_dual_involution(self):
        z5 = finite_group_dual(z5_table())
        f = FiniteFunction.point(1)
        from hypergroups import involute
        assert involute(z5, f) == FiniteFunction.point(4)

    def test_z5_fusion_exact(self):
        z5 = finite_group_dual(z5_table())
        assert z5.fuse(1, 4) == FiniteMeasure.point(0)
        assert check_axioms(z5, z5.universe).ok

    def test_haar_equals_squared_dimension(self, s3, q8, z2, z4):
        for H in (s3, q8, z2, z4):
            for i in H.universe:
                assert H.haar(i) == H.table.dims[i] ** 2


class TestProductDual:
    def test_product_with_trivial_factor(self, s3):
        one = finite_group_dual(CharacterTable(1, [1], [(1, [1], "triv")], name="one"))
        prod = product_dual([s3, one])
        for i in range(3):
            for j in range(3):
                mu = prod.fuse((i, 0), (j, 0))
                base = s3.fuse(i, j)
                assert {x[0]: m for x, m in mu.items()} == dict(base.items())

    def test_haar_multiplies(self, s3):
        prod = product_dual([s3, s3])
        assert prod.haar((2, 2)) == 16

    def test_haar_is_the_product_of_factor_masses(self, su2, s3, q8, z2, z4):
        # the override against the generic route: fuse x with ~x, read the identity
        finite, s3_z4 = product_dual([s3, q8, z2]), product_dual([s3, z4])
        cases = [(finite, finite.universe),
                 (product_dual([su2, s3]), list(itertools.product(range(12), s3.universe))),
                 (product_dual([s3_z4, su2]),
                  list(itertools.product(s3_z4.universe, range(12))))]
        for prod, labels in cases:
            assert [prod._haar(x) for x in labels] == [
                core.Hypergroup._haar(prod, x) for x in labels]
        assert [len(labels) for _, labels in cases] == [30, 36, 144]

    def test_every_dual_haar_is_the_fusion_route(self, su2, s3, q8, z2, z4):
        # dim^2 against the definition 1 / (d_~x * d_x)(e), called on the base class,
        # and the sum of the masses against the Haar sum
        s3_z4 = product_dual([s3, z4])
        cases = [(H, list(H.universe)) for H in (z2, z4, s3, q8, product_dual([s3, q8, z2]))]
        cases += [(product_dual([s3_z4, su2]), list(itertools.product(s3_z4.universe, range(11)))),
                  (su2, list(range(31)))]
        for H, labels in cases:
            masses = [H._haar(x) for x in labels]
            assert masses == [core.Hypergroup._haar(H, x) for x in labels], H.name
            assert H._haar_sum(labels) == sum(masses)
        assert su2._haar_sum(range(31)) == su2._haar_sum(list(range(31)))
        assert [len(labels) for _, labels in cases] == [2, 4, 3, 5, 30, 132, 31]

    def test_factor_that_is_not_a_dual_is_refused(self, s3):
        generic = core.Hypergroup(name="generic", identity=0, commutative=True, universe=[0])
        with pytest.raises(UsageError, match="is not a Dual"):
            product_dual([s3, generic])

    def test_infinite_product_haar_makes_no_fusion(self, su2, s3, monkeypatch):
        def refuse(self, x, y):
            raise AssertionError("the Haar mass of a product fused labels")

        monkeypatch.setattr(ProductDual, "_rule", refuse)
        prod = product_dual([su2, s3])
        assert prod.haar((4, 2)) == 25 * 4
        assert prod.haar_sum([(0, 0), (1, 1), (2, 2)]) == 1 + 4 + 36

    def test_fusion_budget_boundary(self, su2, monkeypatch):
        prod = product_dual([su2, su2])
        monkeypatch.setattr(duals, "MAX_U_PRODUCT_WORK", 9)
        assert len(prod.fuse((2, 2), (2, 3))) == 9
        monkeypatch.setattr(duals, "MAX_U_PRODUCT_WORK", 8)  # each factor's 3 labels fit
        with pytest.raises(CapacityError) as info:
            prod.fuse((2, 2), (2, 3))
        assert str(info.value) == (
            "the fusion of (1, 1) and (1, 3/2) has 9 labels; the budget is 8")

    def test_fusion_masses_are_products_of_integers(self, su2, s3, z4, monkeypatch):
        # each label's mass is one Fraction of the products of the factor numerators
        # and denominators, equal to the factor-by-factor product of the masses
        s3_z4 = product_dual([s3, z4])
        cases = [(product_dual([su2, s3]), (3, 2), (4, 2)),
                 (product_dual([s3_z4, su2]), ((2, 1), 3), ((2, 3), 2))]
        expected = []
        for prod, x, y in cases:
            parts = [f.fuse(a, b).items() for f, a, b in zip(prod.factors, x, y)]
            expected.append({tuple(z for z, _ in combo): math.prod(m for _, m in combo)
                             for combo in itertools.product(*parts)})

        def refuse(self, other):
            raise AssertionError("a product fusion multiplied Fractions")

        monkeypatch.setattr(Fraction, "__mul__", refuse)
        got = [dict(prod.fuse(x, y).items()) for prod, x, y in cases]
        monkeypatch.undo()
        assert got == expected
        assert [len(masses) for masses in got] == [12, 9]

    def test_finite_product_is_priced_before_its_labels_are_listed(self, su2, s3):
        # 16 copies of s3 would list 43 046 721 labels, about 7 GB
        assert 3 ** 12 <= core.MAX_U_PRODUCT_WORK < 3 ** 13
        for factors in ([s3] * 13, [s3] * 16,
                        [product_dual([s3] * 7), product_dual([s3] * 6)]):
            with pytest.raises(CapacityError) as info:
                product_dual(factors)
            assert str(info.value).endswith(
                f"labels; the budget is {core.MAX_U_PRODUCT_WORK}")
        assert "has 1594323 labels" in str(info.value)
        assert product_dual([su2] + [s3] * 13).universe is None  # an infinite product

    def test_product_label_budget_boundary(self, s3, z2, monkeypatch):
        monkeypatch.setattr(duals, "MAX_U_PRODUCT_WORK", 9)
        assert len(product_dual([s3, s3]).universe) == 9
        with pytest.raises(CapacityError) as info:
            product_dual([s3, s3, z2])
        assert str(info.value) == (
            "the product s3-hat x s3-hat x z2-hat has 18 labels; the budget is 9")
        monkeypatch.setattr(duals, "MAX_U_PRODUCT_WORK", 8)
        with pytest.raises(CapacityError):
            product_dual([s3, s3])

    def test_mixed_su2_finite(self, su2, s3):
        prod = product_dual([su2, s3])
        mu = prod.fuse((1, 2), (1, 2))
        assert set(mu.support) == {(a, b) for a in (0, 2) for b in (0, 1, 2)}
        for (a, b), mass in mu.items():
            assert mass == su2.fuse(1, 1).mass(a) * s3.fuse(2, 2).mass(b)
        assert prod.universe is None

    def test_axioms_pass_on_product(self, s3, z4):
        prod = product_dual([s3, z4])
        assert check_axioms(prod, prod.universe).ok

    def test_empty_product_rejected(self):
        with pytest.raises(UsageError):
            product_dual([])

    def test_tensor_table_matches_product_dual(self, s3, z4, s3_x_z4):
        table = s3_x_z4.character_table()
        assert table is not None
        assert table.group_order == 24
        assert sorted(table.dims) == sorted(
            d1 * d2 for d1 in s3.table.dims for d2 in z4.table.dims)
        # row i of the table is the universe's label i: row-major over the factors
        for flat, label in enumerate(s3_x_z4.universe):
            assert table.dims[flat] == s3.table.dims[label[0]] * z4.table.dims[label[1]]
            assert s3_x_z4.haar(label) == table.dims[flat] ** 2

    def test_character_table_built_once_on_first_use(self, s3, z4, monkeypatch):
        calls = []
        init = CharacterTable.__init__
        monkeypatch.setattr(CharacterTable, "__init__", lambda self, *args, **kwargs: (
            calls.append(kwargs["name"]) or init(self, *args, **kwargs)))
        prod = product_dual([s3, z4])
        assert calls == []
        first = prod.character_table()
        assert prod.character_table() is first
        assert calls == ["s3xz4"]

    def test_axioms_check_labels_per_label_not_per_pair(self, monkeypatch):
        # the engines trust the checked sample: the 900 fused pairs add no checks, and
        # the product's involution and dimension re-check no factor label
        calls = []
        check = core.Hypergroup.check_labels
        monkeypatch.setattr(core.Hypergroup, "check_labels",
                            lambda self, labels: calls.append(self) or check(self, labels))
        s3, q8, z2 = (finite_group_dual(builtin_table(name)) for name in ("s3", "q8", "z2"))
        prod = product_dual([s3, q8, z2])
        assert check_axioms(prod, prod.universe).ok
        assert set(calls) == {prod}
        assert len(calls) <= 2 * len(prod.universe)

    def test_foreign_typed_label_refused_on_a_warm_product(self):
        s3, z4 = (finite_group_dual(builtin_table(name)) for name in ("s3", "z4"))
        prod = product_dual([s3, z4])
        assert check_axioms(prod, prod.universe).ok
        for bad in ((0, True), (Fraction(0), 1), (0.0, 1)):
            with pytest.raises(LabelDomainError):
                prod.fuse(bad, (0, 0))
            with pytest.raises(LabelDomainError):
                prod.haar(bad)

    def test_tableless_factor_has_no_table(self, s3):
        prod = product_dual([s3, su2_dual()])
        assert prod.character_table() is None
        assert prod.character_table() is None


def u_series_floats(v):
    """The U-coefficients v(n) (n + 1) of v on su2-hat, as floats."""
    a, scale = su2num.u_series(v.items())
    return np.array(a) / scale


class TestCentralFunction:
    def test_identity_coefficient_gives_constant_one(self, s3):
        coeffs = u_series_floats(FiniteFunction.point(0))
        theta = np.array([0.1, 1.0, 2.5])
        values = chebval(np.cos(theta), su2num.u_to_chebyshev_t(coeffs))
        assert np.allclose(values, 1.0, rtol=0, atol=1e-12)
        assert central_function(s3, FiniteFunction.point(s3.identity)) == (
            (ExactComplex(Fraction(1)),) * 3)

    def test_su2_spin_half_at_pi_thirds(self):
        coeffs = u_series_floats(FiniteFunction.point(1))
        value = chebval(math.cos(math.pi / 3), su2num.u_to_chebyshev_t(coeffs))
        assert abs(value - 2.0) < 1e-12

    def test_s3_rho_class_values(self, s3):
        rho = tuple(ExactComplex(Fraction(v)) for v in (4, 0, -2))
        assert central_function(s3, FiniteFunction.point(2)) == rho
        # a table is not a dual: its caller writes FiniteDual(table)
        assert central_function(FiniteDual(s3.table), FiniteFunction.point(2)) == rho
        with pytest.raises(UsageError, match="no class-function evaluation"):
            central_function(s3.table, FiniteFunction.point(2))

    def test_linearity(self, s3):
        v1 = FiniteFunction({0: 1, 2: half})
        v2 = FiniteFunction({1: Fraction(2), 2: half})
        lhs = central_function(s3, v1 + v2)
        h1 = central_function(s3, v1)
        h2 = central_function(s3, v2)
        assert lhs == tuple(a + b for a, b in zip(h1, h2))

    def test_product_dual_central_values(self, s3_x_z4):
        values = central_function(s3_x_z4, FiniteFunction.point((2, 1)))
        # at the identity class: d * chi(e) = 2 * 2
        assert values[0] == ExactComplex(Fraction(4))

    def test_su2_has_no_class_values(self, su2):
        with pytest.raises(UsageError, match="no class-function evaluation"):
            central_function(su2, FiniteFunction.point(2))

    def test_label_domain_checked(self, s3):
        with pytest.raises(LabelDomainError):
            central_function(s3, FiniteFunction.point(7))
        with pytest.raises(LabelDomainError):
            central_function(FiniteDual(s3.table), FiniteFunction.point(7))

    @pytest.mark.parametrize("label", [-1, True, 1.0, "1", (0,)])
    def test_su2_labels_checked_once_for_both_users(self, label):
        v = FiniteFunction({label: 1})
        for use in (a_norm_su2, lambda f: a_norm(su2_dual(), f)):
            with pytest.raises(LabelDomainError, match="is not a label of su2-hat"):
                use(v)

    def test_su2_u_coefficients(self):
        v = FiniteFunction({0: 1, 3: half})
        assert su2num.u_series(v.items()) == ([2, 0, 0, 4], 2)
        coeffs = u_series_floats(v)
        assert coeffs.tolist() == [1.0, 0.0, 0.0, 2.0]
        theta = 0.7
        value = chebval(math.cos(theta), su2num.u_to_chebyshev_t(coeffs))
        assert value == pytest.approx(1 + 2 * math.sin(4 * theta) / math.sin(theta))
