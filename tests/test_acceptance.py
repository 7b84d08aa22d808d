"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test records a PASS/FAIL line that pytest prints in its terminal
summary (see conftest.py).  Expected values marked as derived were computed
with the independent oracles exercised in the other test modules: direct
support enumeration for ratios, literal formula substitution for weighted
convolutions, closed-form integrals for the quadrature checks.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import record_acceptance

from hypergroups import (
    FiniteMeasure,
    QuadratureConfig,
    a_norm_exact_finite,
    a_norm_su2,
    blowup_report,
    build_witness,
    bump,
    check_axioms,
    check_multiplier_bounded,
    FiniteFunction,
    leptin_product,
    leptin_ratio,
    leptin_search_exhaustive,
    leptin_search_greedy,
    leptin_search_interval,
    product_dual,
    support_product,
)
from hypergroups import su2num

half = Fraction(1, 2)


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    info: dict = {}
    try:
        yield info
    except BaseException as exc:
        record_acceptance(number, title, False, f"{type(exc).__name__}: {exc}"[:140])
        raise
    elapsed = time.perf_counter() - start
    detail = f"{elapsed:.2f}s"
    if "detail" in info:
        detail += f", {info['detail']}"
    record_acceptance(number, title, True, detail)


def test_criterion_01_haar_law(su2, s3, q8, z2, z4, s3_x_z4):
    with criterion(1, "Haar masses are squared dimensions") as info:
        start = time.perf_counter()
        for n in range(0, 31):  # spins up to 15
            assert su2.haar(n) == (n + 1) ** 2
        for H in (s3, q8, z2, z4):
            for i in H.universe:
                assert H.haar(i) == H.table.dims[i] ** 2
        table = s3_x_z4.character_table()
        for row, label in enumerate(s3_x_z4.universe):  # rows run in universe order
            assert s3_x_z4.haar(label) == table.dims[row] ** 2
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        info["detail"] = "su2 spins<=15 plus all bundled tables"


def test_criterion_02_axiom_suite(su2, s3, q8, s3_x_z4):
    with criterion(2, "mass normalization and associativity, exact") as info:
        start = time.perf_counter()
        report = check_axioms(su2, range(13))  # spins up to 6, half-integer lattice
        assert report.ok and report.checks["associativity"] == 13 ** 3
        for H in (s3, q8, s3_x_z4):
            full = check_axioms(H, H.universe)
            assert full.ok, full.summary()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["detail"] = f"{13 ** 3 + 27 + 125 + 1728} associativity triples"


def test_criterion_03_fusion_spot_value(su2):
    with criterion(3, "spin-half square fusion"):
        assert su2.fuse(1, 1) == FiniteMeasure({0: Fraction(1, 4), 2: Fraction(3, 4)})


def test_criterion_04_leptin_closed_form(su2):
    with criterion(4, "interval ratio closed form and searches") as info:
        start = time.perf_counter()
        checked = 0
        for k2 in range(0, 17):  # half-integers k <= m <= 8
            for m2 in range(k2, 17):
                closed = su2num.interval_ratio_n2(k2, m2)
                assert closed == leptin_ratio(su2, range(k2 + 1), range(m2 + 1))
                checked += 1
        certs = 0
        for k2 in range(0, 7):  # k <= 3
            for eps in (Fraction(2), Fraction(1), half, Fraction(1, 10)):
                cert = leptin_search_interval(su2, [k2], eps)
                assert cert.ratio < 1 + eps
                assert cert.verify()
                assert cert.ratio == leptin_ratio(su2, cert.K, cert.V)
                certs += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        info["detail"] = f"{checked} closed-form pairs, {certs} certificates"


def test_criterion_05_bump_certification(su2, s3, q8, z4, s3_x_z4):
    with criterion(5, "plateau properties for 50 sampled (K, V) pairs") as info:
        rng = random.Random(20240810)
        quad = QuadratureConfig(tolerance=1e-8)
        checked = 0

        def verify_pair(H, K, V):
            u = bump(H, K, V)
            assert all(value >= 0 for _, value in u.function.items())
            assert all(u.value(x) == 1 for x in K)
            tilde = frozenset(H.involution(x) for x in V)
            allowed = support_product(H, support_product(H, K, V), tilde)
            assert set(u.support) <= set(allowed)
            assert u.ratio == leptin_ratio(H, K, V)
            measured = float(u.a_norm(quad if H is su2 else None))
            assert measured <= math.sqrt(float(u.ratio)) + 1e-6
            return u

        for _ in range(25):
            K = {rng.randint(0, 4) for _ in range(rng.randint(1, 2))}
            V = {rng.randint(0, 5) for _ in range(rng.randint(1, 4))}
            verify_pair(su2, K, V)
            checked += 1
        finite_duals = [s3, q8, z4, s3_x_z4]
        for i in range(25):
            H = finite_duals[i % len(finite_duals)]
            labels = list(H.universe)
            K = set(rng.sample(labels, rng.randint(1, 2)))
            V = set(rng.sample(labels, rng.randint(1, len(labels))))
            verify_pair(H, K, V)
            checked += 1
        assert checked == 50
        info["detail"] = "50 pairs, exact laws plus measured A-norms"


def test_criterion_06_quadrature_oracle():
    with criterion(6, "torus quadrature against closed-form integrals"):
        assert abs(a_norm_su2(FiniteFunction.point(0)) - 1.0) <= 1e-9
        expected = 16 / (3 * math.pi)
        assert abs(a_norm_su2(FiniteFunction.point(1)) - expected) <= 1e-6


def test_criterion_07_finite_a_norm_oracle(s3):
    with criterion(7, "class-sum A-norm of the two-dimensional row"):
        assert a_norm_exact_finite(s3, FiniteFunction.point(2)) == Fraction(4, 3)


def test_criterion_08_witness_blowup(su2):
    with criterion(8, "witness chain: bounded A-norms, blowing-up Segal norms") as info:
        start = time.perf_counter()
        D = Fraction("1.1")
        w = build_witness(su2, [0], D, 5, search="interval")
        assert len(w) == 5
        assert w.chain_failures() == []  # u_n u_m = u_n exactly, all n < m
        for ratio in w.ratios:
            assert ratio < Fraction(121, 100)
        quad = QuadratureConfig(tolerance=1e-7)
        checks = check_multiplier_bounded(w, config=quad, tolerance=1e-6)
        assert checks.product_ok
        assert checks.max_a_value <= 1.1 + 1e-6
        report = blowup_report(w, 2, config=quad)
        # exact growth certificate: h(K_5) >= 100 * (Segal-2 power of u_1)
        from hypergroups.su2num import sum_squares
        h_last = Fraction(sum_squares(max(w.K_chain[4]) + 1))
        first_power = w.terms[0].segal_power_sum(2)
        assert h_last >= 100 * first_power
        assert report.exact_growth_power >= 100
        assert report.growth_factor >= 10
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        info["detail"] = (f"growth {report.growth_factor:.3g}, "
                          f"max A-norm {checks.max_a_value:.6f}")


def test_criterion_09_product_leptin(su2):
    with criterion(9, "product certificate respects the factor-ratio bound"):
        factor = leptin_search_interval(su2, [1], 2)
        prod = leptin_product([factor, factor])
        direct = leptin_ratio(prod.hypergroup, prod.K, prod.V)
        assert direct == prod.ratio
        assert direct <= factor.ratio * factor.ratio


def test_criterion_10_exhaustive_vs_greedy(s3, q8, z2, z4):
    with criterion(10, "greedy meets every epsilon the exhaustive optimum meets") as info:
        duals = [z2, z4, s3, q8, product_dual([z2, z4])]
        cases = 0
        for H in duals:
            assert len(H.universe) <= 8
            seeds = [{H.universe[0]}, {H.universe[-1]}, set(H.universe[:2])]
            for K in seeds:
                optimum = leptin_search_exhaustive(H, K, Fraction(4))
                for eps in (Fraction(2), Fraction(1), half, Fraction(1, 10)):
                    if optimum.ratio < 1 + eps:
                        cert = leptin_search_greedy(H, K, eps, max_size=16)
                        assert cert is not None, (H.name, sorted(K), eps)
                        assert cert.ratio < 1 + eps
                        cases += 1
        info["detail"] = f"{cases} (dual, K, epsilon) cases"
