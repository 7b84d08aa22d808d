"""Witness chains, blowup reports and the multiplier-boundedness check."""

import json
import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from hypergroups import (
    CapacityError,
    FiniteFunction,
    InternalInvariantError,
    QuadratureConfig,
    UsageError,
    blowup_report,
    build_witness,
    bump,
    check_multiplier_bounded,
)
from hypergroups import segal, su2num
from hypergroups.cli import run
from hypergroups.fourier import BumpFunction, Su2IntervalBump
from hypergroups.core import MAX_INTERVAL_SUPPORT
from hypergroups.segal import (
    CheckReport,
    WitnessSequence,
    absorption_witness,
)
from oracles import dictionary_plateau

half = Fraction(1, 2)
D32 = Fraction(3, 2)
QUICK_QUAD = QuadratureConfig(tolerance=1e-7)


class TestBuildWitnessInterval:
    def test_chain_grows_strictly(self, su2):
        w = build_witness(su2, [0], D32, 4, search="interval")
        tops = [max(k) for k in w.K_chain]
        assert tops[0] == 0
        assert all(a < b for a, b in zip(tops, tops[1:]))

    def test_ratio_caps_hold_exactly(self, su2):
        w = build_witness(su2, [0], D32, 4, search="interval")
        for ratio in w.ratios:
            assert ratio < D32 * D32

    def test_chain_law_all_pairs(self, su2):
        w = build_witness(su2, [0], D32, 4, search="interval")
        assert w.chain_failures() == []

    def test_first_stages_match_generic_construction(self, su2):
        w = build_witness(su2, [0], Fraction("1.1"), 2, search="interval")
        for term, K, V in zip(w.terms, w.K_chain, w.V_chain):
            generic = dictionary_plateau(su2, K, V)
            assert term.function == generic.function
            assert term.ratio == generic.ratio

    def test_single_term(self, su2):
        w = build_witness(su2, [0], Fraction(2), 1, search="interval")
        assert len(w) == 1
        assert w.chain_failures() == []

    def test_nontrivial_seed(self, su2):
        w = build_witness(su2, [0, 1, 2], D32, 2, search="interval")
        assert max(w.K_chain[0]) == 2
        assert w.terms[0].is_one_on([0, 1, 2])

    def test_interval_needs_su2(self, s3):
        with pytest.raises(UsageError):
            build_witness(s3, [0], D32, 2, search="interval")

    def test_support_cap_admits_the_default_chain(self, su2):
        w = build_witness(su2, [0], "11/10", 5, search="interval")
        assert len(w.terms[-1].support) == 1_871_761 <= MAX_INTERVAL_SUPPORT

    def test_stage_past_the_support_cap_is_refused_up_front(self, su2):
        # at D = 1.1 stage 6 would have 58 935 667 labels
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(CapacityError, match="stage 6: .* 58935667 labels"):
                build_witness(su2, [0], "11/10", 7, search="interval")
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20


class TestBuildWitnessGeneric:
    def test_s3_stabilizes_at_universe(self, s3):
        w = build_witness(s3, [s3.identity], Fraction("1.1"), 3, search="greedy")
        assert sorted(w.K_chain[-1]) == [0, 1, 2]
        last = w.terms[-1]
        assert all(last.value(x) == 1 for x in s3.universe)
        assert w.ratios[-1] == 1
        assert w.chain_failures() == []

    def test_exhaustive_strategy(self, q8):
        w = build_witness(q8, [q8.identity], D32, 3, search="exhaustive")
        assert w.chain_failures() == []
        assert all(r < D32 * D32 for r in w.ratios)

    def test_stage_certificate_is_proven(self, s3, monkeypatch):
        # the engine's certificate verifies; the stage's, on a dented plateau, must not
        def dented_bump(H, K, V):
            term = bump(H, K, V)
            term.ratio += 1
            return term

        monkeypatch.setattr(segal, "bump", dented_bump)
        with pytest.raises(InternalInvariantError) as info:
            build_witness(s3, [s3.identity], Fraction("1.1"), 2, search="greedy")
        assert str(info.value) == "stage 1: greedy certificate failed self-verification"

    def test_greedy_budget_failure_names_stage(self, su2):
        with pytest.raises(CapacityError, match="stage 1"):
            build_witness(su2, [8], Fraction("1.01"), 2, search="greedy", max_size=3)

    def test_bad_arguments(self, su2):
        with pytest.raises(UsageError):
            build_witness(su2, [0], 1.1, 2)  # float D
        with pytest.raises(UsageError):
            build_witness(su2, [0], Fraction(1), 2)  # D must exceed 1
        with pytest.raises(UsageError):
            build_witness(su2, [0], D32, 0)
        with pytest.raises(UsageError):
            build_witness(su2, [], D32, 1)
        with pytest.raises(UsageError):
            build_witness(su2, [0], D32, 1, search="quantum")


class TestBlowupReport:
    def test_su2_growth_and_lower_bounds(self, su2):
        w = build_witness(su2, [0], D32, 4, search="interval")
        report = blowup_report(w, 2, config=QUICK_QUAD)
        for row, K in zip(report.rows, w.K_chain):
            h_k = sum((n + 1) ** 2 for n in K)
            assert row.lower_bound == pytest.approx(math.sqrt(h_k))
            assert row.segal_p >= row.lower_bound - 1e-9
            assert row.a_value <= row.a_bound + 1e-6
        assert report.growth_factor > 10
        assert report.exact_growth_power is not None

    def test_stabilized_finite_growth_is_flat(self, s3):
        w = build_witness(s3, [s3.identity], Fraction(2), 4, search="greedy")
        report = blowup_report(w, 2)
        assert report.rows[-1].segal_p == report.rows[2].segal_p

    def test_fully_stabilized_chain_has_unit_growth(self, s3):
        # seeding with the whole universe stabilizes immediately: no blowup,
        # and the p = 1 growth factor is reported as exactly 1
        w = build_witness(s3, list(s3.universe), Fraction(2), 3, search="greedy")
        report = blowup_report(w, 1)
        assert report.growth_factor == 1.0
        assert report.exact_growth_power == 1

    def test_identity_stage_norm_is_one(self, s3):
        # a stage whose plateau is the identity point mass: norm meets its bound
        from hypergroups.segal import WitnessSequence
        e = s3.identity
        u = bump(s3, [e], [e])
        w = WitnessSequence(hypergroup=s3, D=Fraction(2), strategy="greedy",
                            terms=[u], next_K=frozenset({e}))
        assert w.K_chain == [frozenset({e}), frozenset({e})]
        assert w.ratios == [Fraction(1)]
        report = blowup_report(w, 2)
        assert report.rows[0].segal_p == pytest.approx(1.0)
        assert report.rows[0].lower_bound == pytest.approx(1.0)

    def test_non_integer_p(self, su2):
        w = build_witness(su2, [0], D32, 3, search="interval")
        report = blowup_report(w, Fraction(3, 2), config=QUICK_QUAD)
        assert report.exact_growth_power is None
        assert report.growth_factor > 1

    def test_p_validation(self, su2):
        w = build_witness(su2, [0], D32, 1, search="interval")
        with pytest.raises(UsageError):
            blowup_report(w, 3)

    def test_csv_shape(self, su2):
        w = build_witness(su2, [0], D32, 3, search="interval")
        report = blowup_report(w, 2, config=QUICK_QUAD)
        lines = report.to_csv_text().strip().split("\n")
        assert lines[0] == "n,K_size,V_size,ratio,a_bound,a_value,segal_p,lower_bound"
        assert len(lines) == 4
        doc = report.to_json_dict()
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["ratio"].count("/") == 1


class TestMultiplierBounded:
    def test_su2_sequence_passes(self, su2):
        w = build_witness(su2, [0], D32, 4, search="interval")
        report = check_multiplier_bounded(w, config=QUICK_QUAD)
        assert report.product_ok
        assert report.bound_ok
        assert report.max_a_value <= float(D32) + 1e-6
        assert report.ok

    def test_single_term_vacuous_products(self, s3):
        w = build_witness(s3, [0], Fraction(2), 1, search="greedy")
        report = check_multiplier_bounded(w)
        assert report.product_ok and report.product_failures == []

    def test_tolerance_must_be_finite_and_nonnegative(self, s3):
        w = build_witness(s3, [0], Fraction(2), 1, search="greedy")
        assert check_multiplier_bounded(w, tolerance=0).ok
        for bad in (math.nan, math.inf, -1e-6):
            with pytest.raises(UsageError):
                check_multiplier_bounded(w, tolerance=bad)

    def test_corrupted_sequence_fails_with_witness(self, s3):
        w = build_witness(s3, [s3.identity], Fraction("1.1"), 3, search="greedy")
        # break the last plateau on the support of the previous one
        last = w.terms[-1]
        dented = dict(last.function.items())
        dent_at = sorted(dented)[-1]
        dented[dent_at] = half
        w.terms[-1] = BumpFunction(last.hypergroup, last.K, last.V, last.ratio,
                                   FiniteFunction(dented), last.grown)
        report = check_multiplier_bounded(w)
        assert not report.product_ok
        assert any(label == s3.label_str(dent_at)
                   for _, _, label in report.product_failures)
        assert not report.ok

    def test_replaced_term_is_measured_again(self, su2):
        w = build_witness(su2, [0], D32, 3, search="interval")
        assert check_multiplier_bounded(w, config=QUICK_QUAD).bound_ok
        last = w.terms[2]
        # a quarter of the V: ratio 69/7 and an A-norm of about 2.358
        w.terms[2] = Su2IntervalBump(su2, last.k2, last.m2 // 4)
        report = check_multiplier_bounded(w, config=QUICK_QUAD)
        assert report.a_values[2] == pytest.approx(2.358, abs=1e-3)
        assert report.max_a_value == report.a_values[2]
        assert not report.bound_ok and not report.ok

    def test_one_a_norm_pass_per_tolerance(self, su2, monkeypatch):
        # no config and the default config name the same quadrature
        calls = []
        a_norm = Su2IntervalBump.a_norm

        def counted(self, config=None):
            calls.append(self.k2)
            return a_norm(self, config)

        monkeypatch.setattr(Su2IntervalBump, "a_norm", counted)
        w = build_witness(su2, [0], D32, 3, search="interval")
        blowup_report(w, 2)
        check_multiplier_bounded(w, config=QuadratureConfig())
        assert len(calls) == len(w) == 3
        check_multiplier_bounded(w, config=QUICK_QUAD)
        assert len(calls) == 6

    def test_one_interval_product_l1_call_per_a_norm(self, su2, monkeypatch):
        calls = []
        original = su2num.interval_product_l1

        def counted(P, Q, tolerance):
            calls.append((P, Q))
            return original(P, Q, tolerance)

        monkeypatch.setattr(su2num, "interval_product_l1", counted)
        w = build_witness(su2, [0], Fraction("1.1"), 4, search="interval")
        w.a_values(QUICK_QUAD)
        assert calls == [(t.k2 + t.m2 + 1, t.m2 + 1) for t in w.terms]
        assert len(calls) == 4

    def test_report_serializes(self, su2):
        w = build_witness(su2, [0], D32, 2, search="interval")
        doc = check_multiplier_bounded(w, config=QUICK_QUAD).to_json_dict()
        assert doc["ok"] is True
        assert doc["cap"] == 1.5

    def test_residuals_reach_the_reports(self, su2, s3):
        w = build_witness(su2, [0], D32, 3, search="interval")
        report = blowup_report(w, 2, config=QUICK_QUAD)
        check = check_multiplier_bounded(w, config=QUICK_QUAD)
        residuals = [row.a_residual for row in report.rows]
        assert residuals == check.a_residuals == [a.residual for a in w.a_values(QUICK_QUAD)]
        assert all(0 < r <= QUICK_QUAD.tolerance for r in residuals)
        assert [row["a_residual"] for row in report.to_json_dict()["rows"]] == residuals
        assert check.to_json_dict()["a_residuals"] == residuals
        # the CSV keeps its columns
        assert report.to_csv_text().split("\n")[0] == ",".join(report.CSV_COLUMNS)
        # an exact class sum has no residual
        finite = build_witness(s3, [0], Fraction(2), 2, search="greedy")
        assert check_multiplier_bounded(finite).a_residuals == [0.0, 0.0]

    def test_bound_counts_each_residual(self):
        def report(a_values, a_residuals):
            return CheckReport(product_ok=True, product_failures=[], a_values=a_values,
                               max_a_value=max(a_values), cap=1.5, tolerance=1e-6,
                               a_residuals=a_residuals)

        assert report([1.5, 1.0], [1e-6, 0.0]).bound_ok
        assert not report([1.5, 1.0], [2e-6, 0.0]).bound_ok
        # the value with the largest sum decides, not the largest value
        assert not report([1.5, 1.5 - 1e-7], [0.0, 2e-6]).bound_ok

    def test_cli_witness_checks_the_chain_once(self, monkeypatch, tmp_path):
        calls = []
        chain_failures = WitnessSequence.chain_failures

        def counted(self):
            calls.append(len(self))
            return chain_failures(self)

        monkeypatch.setattr(WitnessSequence, "chain_failures", counted)
        out = tmp_path / "witness.json"
        assert run(["witness", "--dual", "su2", "--D", "1.1", "--N", "3", "--format", "json",
                    "--no-timestamp", "--out", str(out)]) == 0
        assert calls == [3]
        assert json.loads(out.read_text())["multiplier_check"]["product_ok"] is True


class TestAbsorptionWitness:
    def test_interval_pair(self, su2):
        inner = Su2IntervalBump(su2, 0, 1)
        outer = Su2IntervalBump(su2, 2, 2)
        assert absorption_witness(inner, outer) is None
        # the reverse direction must produce a concrete witness label
        label = absorption_witness(outer, inner)
        assert label is not None
        assert outer.value(label) * inner.value(label) != outer.value(label)

    def test_generic_pair(self, s3):
        small = bump(s3, [s3.identity], [s3.identity])
        large = bump(s3, list(s3.universe), list(s3.universe))
        assert absorption_witness(small, large) is None
        witness = absorption_witness(large, small)
        assert witness is not None

    @staticmethod
    def product_oracle(earlier, later):
        """Smallest label where the materialized product differs from earlier."""
        mine = earlier.function
        diff = mine * later.function - mine
        return diff.support[0] if diff else None

    def test_su2_pairs_match_product_oracle(self, su2):
        # interval terms and generic bumps, every ordered pair: both mixed orders
        plateaus = [Su2IntervalBump(su2, k2, m2)
                    for k2, m2 in ((0, 0), (0, 1), (1, 2), (2, 3), (6, 4))]
        plateaus += [dictionary_plateau(su2, [0], [0, 1]), bump(su2, [1], [0, 2]),
                     dictionary_plateau(su2, [0, 1, 2], [0, 1, 2, 3]), bump(su2, [0, 2], [1])]
        absorbed = 0
        for earlier in plateaus:
            for later in plateaus:
                expected = self.product_oracle(earlier, later)
                assert absorption_witness(earlier, later) == expected
                absorbed += expected is None
        assert 0 < absorbed < len(plateaus) ** 2

    def test_s3_pairs_match_product_oracle(self, s3):
        plateaus = [bump(s3, K, V) for K, V in (
            ([0], [0]), ([0], [0, 1]), ([2], [0]), ([0], [2]), ([1, 2], [0, 2]))]
        for earlier in plateaus:
            for later in plateaus:
                assert absorption_witness(earlier, later) == \
                    self.product_oracle(earlier, later)

    def test_dent_inside_later_plateau_is_named(self, su2, monkeypatch):
        # a dent at or below the later term's own k2 is still a chain failure
        w = build_witness(su2, [0], D32, 3, search="interval")
        earlier, later = w.terms[1], w.terms[2]
        z = earlier.k2 + 1
        assert z in earlier.support and z <= later.k2
        assert z not in w.terms[0].support
        closed_form = later.numerator
        monkeypatch.setattr(later, "numerator", lambda n: closed_form(n) + (n == z + 1))
        assert later.value(z) != 1
        assert w.chain_failures() == [(2, 3, su2.label_str(z))]
