"""End-to-end CLI behaviour: reports, round-trips, error categories."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypergroups.cli
from hypergroups.cli import resolve_dual, run
from hypergroups.core import AxiomViolationError, InternalInvariantError, UsageError
from hypergroups.duals import ProductDual, Su2Dual, load_character_table
from hypergroups.fourier import DEFAULT_QUADRATURE
from hypergroups.leptin import STRATEGIES, certificate_from_json_dict, leptin_search


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_traced(capsys, *argv):
    """run_cli, and the tracemalloc peak of the run in bytes."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, err, peak


def run_module(*argv, **env_overrides):
    """``python -m hypergroups argv`` in a subprocess, with ``env_overrides`` set."""
    src = str(Path(hypergroups.cli.__file__).resolve().parent.parent)
    env = {**os.environ, **env_overrides}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hypergroups", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_python_dash_m_runs_the_cli():
    result = run_module("witness", "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: hypergroups witness")


class TestChoicesFromTheLibrary:
    def test_strategies_and_quadrature_default(self):
        parser = hypergroups.cli.build_parser()
        args = parser.parse_args(["witness", "--dual", "su2"])
        assert args.strategy == "auto"
        assert args.quad_tol == DEFAULT_QUADRATURE.tolerance
        for strategy in STRATEGIES:
            for command in (["witness", "--dual", "su2"],
                            ["leptin", "--dual", "su2", "--K", "1", "--epsilon", "1"]):
                assert parser.parse_args(command + ["--strategy", strategy]).strategy == strategy


class TestDualSpecs:
    def test_su2(self):
        assert isinstance(resolve_dual("su2"), Su2Dual)

    def test_bundled_tables(self):
        for name, size in [("z2", 2), ("z4", 4), ("s3", 3), ("q8", 5)]:
            H = resolve_dual(name)
            assert len(H.universe) == size

    def test_bundled_product_config(self, capsys):
        # a product is a comma list; there is no bundled product config
        code, out, err = run_cli(capsys, "haar", "--dual", "s3_x_z4")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "usage"

    def test_comma_product(self):
        H = resolve_dual("s3,z4")
        assert isinstance(H, ProductDual)

    def test_unknown_spec(self, capsys):
        code, _, err = run_cli(capsys, "haar", "--dual", "nosuchdual")
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_table_file(self, tmp_path, s3):
        path = tmp_path / "mine.json"
        path.write_text(json.dumps(s3.table.to_json_dict()))
        H = resolve_dual(str(path))
        assert len(H.universe) == 3

    def test_product_config_file(self, tmp_path, capsys):
        # a spec file is always a character table, so a product config fails as one
        path = tmp_path / "prod.json"
        path.write_text(json.dumps({"product": ["z2", "z2"]}))
        code, out, err = run_cli(capsys, "haar", "--dual", str(path))
        assert code == 3 and out == ""
        assert "missing field 'group_order'" in json.loads(err)["message"]

    def test_unreadable_path_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "haar", "--dual", str(tmp_path))
        assert code == 2
        assert json.loads(err)["error"] == "usage"


class TestLabelParsing:
    def test_su2_labels(self, su2):
        assert su2.parse_label("0") == 0
        assert su2.parse_label("1/2") == 1
        assert su2.parse_label("0.5") == 1
        assert su2.parse_label("3") == 6

    def test_finite_labels(self, s3):
        assert s3.parse_label("rho") == 2
        assert s3.parse_label("0") == 0

    def test_product_labels(self, s3_x_z4):
        assert s3_x_z4.parse_label("rho|chi1") == (2, 1)

    @pytest.mark.parametrize("argv", [
        ["haar", "--dual", "s3,z4", "--labels"],
        ["leptin", "--dual", "s3,z4", "--epsilon", "1/4", "--K"],
    ])
    def test_printed_product_labels_in_a_list(self, capsys, argv):
        # the form reports print: a comma inside parentheses does not end a label
        printed = run_cli(capsys, *argv, "(rho, chi1),(sgn, chi2)", "--format", "json",
                          "--no-timestamp")
        piped = run_cli(capsys, *argv, "rho|chi1,sgn|chi2", "--format", "json",
                        "--no-timestamp")
        assert printed == piped
        assert printed[0] == 0

    def test_bad_labels(self, su2, s3):
        from hypergroups import UsageError, LabelDomainError
        with pytest.raises(UsageError):
            su2.parse_label("1/3")
        with pytest.raises(LabelDomainError):
            s3.parse_label("sigma")


_PIECES = st.sampled_from(["0", "2", "3", "-1", "1/2", "3/2", "0.5", "1e1", "rho", "sgn",
                           "triv", "chi1", "chi3", "chi4", " ", ""])
_LABEL_TEXT = st.one_of(
    st.text(max_size=10),
    st.text(alphabet="0123456789/.-+e _|(),", max_size=8),
    st.lists(_PIECES, min_size=1, max_size=3).map("|".join),
    st.lists(_PIECES, min_size=1, max_size=3).map(lambda parts: f"({', '.join(parts)})"),
)
_SPECS = {spec: resolve_dual(spec) for spec in ("su2", "s3", "s3,z4")}


class TestLabelText:
    @given(spec=st.sampled_from(sorted(_SPECS)), text=_LABEL_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_round_trips_or_exits_2(self, spec, text):
        H = _SPECS[spec]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["convolve", "--dual", spec, f"--x={text}",
                        f"--y={H.label_str(H.identity)}"])
        if code == 0:
            x = H.parse_label(text)
            assert H.parse_label(H.label_str(x)) == x
        else:
            assert code == 2, err.getvalue()
            assert json.loads(err.getvalue())["error"] == "usage"

    def test_printed_product_labels_parse(self, s3_x_z4):
        for x in s3_x_z4.universe:
            assert s3_x_z4.parse_label(s3_x_z4.label_str(x)) == x
        assert s3_x_z4.parse_label(" ( rho ,chi1 ) ") == (2, 1)


class TestIngestTable:
    def test_bundled_paths(self, tmp_path, q8):
        path = tmp_path / "q8.json"
        path.write_text(json.dumps(q8.table.to_json_dict()))
        table = load_character_table(path)
        assert table.n_irreps == 5

    def test_truncated_file_names_position(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"group_order": 6, "classes": [1, 3')
        code, _, err = run_cli(capsys, "haar", "--dual", str(bad))
        assert code == 3
        message = json.loads(err)["message"]
        assert "line" in message and "column" in message

    def test_dimension_bookkeeping_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "group_order": 6, "classes": [1, 3, 2],
            "irreps": [{"dim": 1, "values": [[1, 0], [1, 0], [1, 0]]}],
        }))
        code, _, err = run_cli(capsys, "haar", "--dual", str(bad))
        assert code == 3
        assert json.loads(err)["error"] == "invalid-table"

    def test_duplicate_irrep_names_exit_3(self, tmp_path, capsys):
        # once loaded, the JSON masses would keep 2 of 3 rows and "a" name the first
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps({
            "group_order": 6, "classes": [1, 3, 2],
            "irreps": [{"dim": 1, "name": "a", "values": [[1, 0], [1, 0], [1, 0]]},
                       {"dim": 1, "name": "a", "values": [[1, 0], [-1, 0], [1, 0]]},
                       {"dim": 2, "name": "rho", "values": [[2, 0], [0, 0], [-1, 0]]}],
        }))
        code, out, err = run_cli(capsys, "haar", "--dual", str(dup), "--format", "json")
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "invalid-table"
        assert "irreps[0] and irreps[1] are both named 'a'" in error["message"]


    def test_table_that_is_not_utf8_exits_3(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(resources.files("hypergroups.tables").joinpath("z2.json")
                        .read_bytes().replace(b'"sgn"', b'"\xffsgn"'))
        result = run_module("haar", "--dual", str(bad))
        assert (result.returncode, result.stdout) == (3, "")
        error = json.loads(result.stderr)
        assert error["error"] == "invalid-table"
        assert "not UTF-8" in error["message"]

    def test_utf8_table_under_a_non_utf8_locale(self, tmp_path):
        # the table is read, and --out written, as UTF-8 whatever the locale says
        table = tmp_path / "chi.json"
        table.write_bytes(resources.files("hypergroups.tables").joinpath("z2.json")
                          .read_bytes().replace(b'"sgn"', '"χ"'.encode()))
        out = tmp_path / "out.txt"
        result = run_module("haar", "--dual", str(table), "--out", str(out),
                            LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        assert (result.returncode, result.stderr) == (0, "")
        assert out.read_bytes() == b"h(triv) = 1\nh(\xcf\x87) = 1\n"


class TestCommands:
    def test_haar_su2(self, capsys):
        code, out, _ = run_cli(capsys, "haar", "--dual", "su2", "--max-ell", "3",
                               "--format", "json", "--no-timestamp")
        assert code == 0
        masses = json.loads(out)["masses"]
        assert [masses[k] for k in ("0", "1/2", "1", "3/2", "2", "5/2", "3")] == \
            ["1/1", "4/1", "9/1", "16/1", "25/1", "36/1", "49/1"]

    def test_convolve_rho(self, capsys):
        code, out, _ = run_cli(capsys, "convolve", "--dual", "s3", "--x", "rho",
                               "--y", "rho", "--format", "json", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc == {"triv": "1/4", "sgn": "1/4", "rho": "1/2"}

    def test_weighted_convolve(self, capsys, su2):
        code, out, _ = run_cli(capsys, "convolve", "--dual", "su2", "--x", "0.5",
                               "--y", "0.5", "--weighted", "--format", "json",
                               "--no-timestamp")
        assert code == 0
        assert json.loads(out)["result"] == {"0": "4/1", "1": "4/3"}

    def test_weighted_convolve_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "convolve", "--dual", "su2", "--x", "3",
                               "--y", "5/2", "--weighted", "--format", "json",
                               "--no-timestamp")
        assert code == 0
        assert out == (
            '{\n  "command": "convolve",\n  "dual": "su2",\n  "result": {\n'
            '    "1/2": "21/1",\n    "11/2": "7/2",\n    "3/2": "21/2",\n'
            '    "5/2": "7/1",\n    "7/2": "21/4",\n    "9/2": "21/5"\n  },\n'
            '  "weighted": true,\n  "x": "3",\n  "y": "5/2"\n}\n')

    def test_axioms_over_budget_exits_4(self, capsys):
        code, out, err = run_cli(capsys, "axioms", "--dual", "su2", "--max-ell", "25",
                                 "--format", "json", "--no-timestamp")
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"] == "capacity"

    @pytest.mark.parametrize("argv", [
        ["norms", "--dual", "su2", "--values", "1e5=1"],
        ["bump", "--dual", "su2", "--K", "0", "--V", "1e6"],
    ])
    def test_su2_engine_over_budget_exits_4(self, capsys, argv):
        # a numpy memory error (exit 1) and a run of minutes before
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"] == "capacity"

    @pytest.mark.parametrize("argv", [
        ["axioms", "--dual", "su2,s3", "--max-ell", "40"],
        ["axioms", "--dual", "su2,s3", "--max-ell", "20"],
        ["witness", "--dual", "s3", "--N", "65"],
    ])
    def test_refused_before_any_work(self, capsys, argv):
        # the axioms ran 54 s and 8 s in the generic support loops before they
        # were refused; a witness of many terms checks every pair of stages
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "capacity"
        if argv[0] == "axioms":
            assert "at least" in error["message"]

    @pytest.mark.parametrize("dual,max_ell,size", [
        ("su2", "500000", 1000001), ("su2,s3", "50000", 300003),
        ("su2", "1e21", 2 * 10 ** 21 + 1), ("su2,s3", "1e21", 6 * 10 ** 21 + 3),
    ])
    def test_axioms_sample_is_priced_before_it_is_built(self, capsys, dual, max_ell, size):
        # the sample and its copies took about 80 bytes a label (117 MB and 68 MB);
        # past 2^63 labels len() raised OverflowError
        resolve_dual(dual)  # load the tables first: only the sample is measured
        code, out, err, peak = run_cli_traced(capsys, "axioms", "--dual", dual,
                                              "--max-ell", max_ell)
        assert (code, out) == (4, "")
        assert json.loads(err)["message"].startswith(
            f"associativity over {size} labels would hold at least ")
        assert peak < 1 << 20

    @pytest.mark.parametrize("dual,max_ell,size", [
        ("su2", "10000000", 20000001), ("su2,s3", "1000000", 6000003),
        ("su2,s3", "1e21", 6 * 10 ** 21 + 3),
    ])
    def test_haar_listing_is_priced_before_it_is_built(self, capsys, dual, max_ell, size):
        # a row took 430-590 bytes: 117 MB for the 200 001 rows of --max-ell 100000
        resolve_dual(dual)
        code, out, err, peak = run_cli_traced(capsys, "haar", "--dual", dual,
                                              "--max-ell", max_ell)
        assert (code, out) == (4, "")
        assert json.loads(err)["message"] == (
            f"the haar listing has {size} labels, more than the 262144 it may print")
        assert peak < 1 << 20

    def test_finite_product_is_priced_before_its_labels_are_listed(self, capsys):
        # 16 copies of s3 would list 43 046 721 labels, about 7 GB
        resolve_dual("s3")
        code, out, err, peak = run_cli_traced(capsys, "haar", "--dual", ",".join(["s3"] * 16))
        assert (code, out) == (4, "")
        assert json.loads(err)["message"].endswith(
            "has 43046721 labels; the budget is 1048576")
        assert peak < 1 << 20

    def test_haar_of_a_finite_product_makes_no_fusion(self, capsys, monkeypatch):
        def refuse(self, x, y):
            raise AssertionError("the Haar mass of a product fused labels")

        monkeypatch.setattr(ProductDual, "_rule", refuse)
        code, out, err = run_cli(capsys, "haar", "--dual", ",".join(["s3"] * 12),
                                 "--labels", "|".join(["rho"] * 12))
        assert (code, err) == (0, "")
        assert out == f"h(({', '.join(['rho'] * 12)})) = 16777216\n"

    def test_haar_of_a_finite_product_with_labels_sorts_no_universe(self, capsys, monkeypatch):
        # the 531 441 labels of 12 copies of s3 are sorted only when read;
        # the product reads each factor's universe of 3 labels to price itself
        def refuse(self):
            raise AssertionError("the haar of one label read the product's universe")

        monkeypatch.setattr(ProductDual, "universe", property(refuse))
        resolve_dual("s3")  # load the table first: only the product is measured
        code, out, err, peak = run_cli_traced(capsys, "haar", "--dual", ",".join(["s3"] * 12),
                                              "--labels", "|".join(["rho"] * 12))
        assert (code, err) == (0, "")
        assert out == f"h(({', '.join(['rho'] * 12)})) = 16777216\n"
        # sorted when built, the label tuples alone took about 80 MB
        assert peak < 1 << 20

    def test_haar_listing_budget_bites(self, capsys, monkeypatch):
        monkeypatch.setattr(hypergroups.cli, "MAX_HAAR_ROWS", 10)
        code, _, err = run_cli(capsys, "haar", "--dual", "su2", "--max-ell", "5")
        assert code == 4
        assert json.loads(err)["message"].startswith("the haar listing has 11 labels")
        assert run_cli(capsys, "haar", "--dual", "su2", "--max-ell", "9/2")[0] == 0

    @pytest.mark.parametrize("epsilon", ["1/1000000", "1e-400"])
    def test_certificate_listing_is_priced_before_it_is_built(self, capsys, epsilon):
        # listing the 6 000 002 labels of V took 759 MB; at 1e-400 len() raised OverflowError
        code, out, err, peak = run_cli_traced(capsys, "leptin", "--dual", "su2", "--K", "1",
                                              "--strategy", "interval", "--epsilon", epsilon)
        assert (code, out) == (4, "")
        assert re.fullmatch(r"the certificate listing has \d+ labels, "
                            r"more than the 262144 it may print", json.loads(err)["message"])
        assert peak < 1 << 20

    def test_certificate_listing_budget_bites(self, capsys, monkeypatch):
        monkeypatch.setattr(hypergroups.leptin, "MAX_HAAR_ROWS", 8)
        argv = ["leptin", "--dual", "su2", "--K", "1", "--strategy", "interval", "--epsilon"]
        code, _, err = run_cli(capsys, *argv, "1")  # |K| = 3, |V| = 8
        assert code == 4
        assert json.loads(err)["message"] == (
            "the certificate listing has 11 labels, more than the 8 it may print")
        assert run_cli(capsys, *argv, "2")[0] == 0  # |K| = 3, |V| = 5

    def test_interval_certificate_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "leptin", "--dual", "su2", "--K", "3", "--epsilon", "1/10",
                               "--strategy", "interval", "--format", "json", "--no-timestamp")
        assert code == 0
        doc = {"command": "leptin", "dual": "su2", "certificate": {
            "strategy": "interval", "hypergroup": "su2-hat", "K": list(range(7)),
            "V": list(range(186)), "ratio": "216160/196571", "epsilon": "1/10",
            "verified": True}}
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv,size", [
        (["--dual", "su2", "--x", "1e7", "--y", "1e7"], 20000001),
        (["--dual", "su2,su2,su2", "--x", "100|100|100", "--y", "100|100|100"], 201 ** 3),
    ])
    def test_fusion_is_priced_before_it_is_built(self, capsys, argv, size):
        # a fusion label cost about 275 bytes: 5.5 GB for the first
        resolve_dual(argv[1])
        code, out, err, peak = run_cli_traced(capsys, "convolve", *argv)
        assert (code, out) == (4, "")
        assert json.loads(err)["message"].endswith(
            f"has {size} labels; the budget is 1048576")
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv", [
        ["leptin", "--dual", "s3", "--K", "0", "--epsilon", "1", "--strategy", "exhaustive",
         "--max-size", "0"],
        ["leptin", "--dual", "su2", "--K", "0", "--epsilon", "1", "--strategy", "interval",
         "--max-size", "-5"],
    ])
    def test_max_size_is_checked_under_every_strategy(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["message"].startswith("--max-size: must be a positive integer")
        H, strategy = resolve_dual(argv[2]), argv[argv.index("--strategy") + 1]
        with pytest.raises(UsageError, match="^max_size: must be a positive integer"):
            leptin_search(H, [H.identity], 1, strategy, max_size=int(argv[-1]))

    def test_axioms_exit_zero_with_failures_as_data(self, capsys):
        code, out, _ = run_cli(capsys, "axioms", "--dual", "q8", "--format", "json",
                               "--no-timestamp")
        assert code == 0
        assert json.loads(out)["report"]["ok"] is True

    def test_leptin_interval_certificate(self, capsys, su2):
        code, out, _ = run_cli(capsys, "leptin", "--dual", "su2", "--K", "0.5",
                               "--epsilon", "2", "--strategy", "interval",
                               "--format", "json", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)["certificate"]
        assert doc["ratio"] == "14/5"
        assert doc["verified"] is True
        cert = certificate_from_json_dict(doc, su2)
        assert cert.verify()

    def test_leptin_greedy_s3(self, capsys):
        code, out, _ = run_cli(capsys, "leptin", "--dual", "s3", "--K", "rho",
                               "--epsilon", "0.5", "--format", "json",
                               "--no-timestamp")
        assert code == 0
        doc = json.loads(out)["certificate"]
        assert Fraction(doc["ratio"]) < Fraction(3, 2)

    def test_leptin_exhaustive_capacity_error(self, capsys):
        code, _, err = run_cli(capsys, "leptin", "--dual", "su2", "--K", "1",
                               "--epsilon", "1", "--strategy", "exhaustive")
        assert code == 4
        assert json.loads(err)["error"] == "capacity"

    def test_bump_report(self, capsys):
        code, out, _ = run_cli(capsys, "bump", "--dual", "su2", "--K", "0.5",
                               "--V", "0,0.5,1", "--measure-a-norm",
                               "--format", "json", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)["bump"]
        assert doc["ratio"] == "15/7"
        assert doc["values"]["1/2"] == "1/1"
        assert doc["a_norm"] <= doc["a_norm_bound"] + 1e-6
        assert 0 < doc["a_residual"] <= 1e-9

    @pytest.mark.parametrize("dual,K,V,once", [
        ("su2", "0", "0,0", "0"), ("s3", "0", "1,1", "1"), ("su2", "1,1", "0,1/2,0", "0,1/2")])
    def test_bump_repeated_labels_count_once(self, capsys, dual, K, V, once):
        reports = [run_cli(capsys, "bump", "--dual", dual, "--K", K, "--V", labels,
                           "--measure-a-norm", "--format", "json", "--no-timestamp")
                   for labels in (V, once)]
        assert reports[0] == reports[1] and reports[0][0] == 0

    def test_bump_report_on_a_finite_dual_has_no_residual(self, capsys):
        code, out, _ = run_cli(capsys, "bump", "--dual", "s3", "--K", "triv",
                               "--V", "triv,sgn", "--measure-a-norm", "--format", "json")
        assert code == 0
        doc = json.loads(out)["bump"]
        assert "a_norm" in doc and "a_residual" not in doc

    def test_norms_report(self, capsys):
        code, out, _ = run_cli(capsys, "norms", "--dual", "s3",
                               "--values", "rho=1", "--p", "1",
                               "--format", "json", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)["norms"]
        assert doc["l1_h"] == "4/1"
        assert doc["a_norm_exact"] == "4/3"
        assert "a_residual" not in doc

    def test_norms_report_on_su2_carries_the_residual(self, capsys):
        code, out, _ = run_cli(capsys, "norms", "--dual", "su2", "--values", "0=1;1/2=2",
                               "--quad-tol", "1e-7", "--format", "json")
        assert code == 0
        doc = json.loads(out)["norms"]
        assert 0 < doc["a_residual"] <= 1e-7
        assert "a_norm_exact" not in doc

    @pytest.mark.parametrize("dual,values,label", [
        ("su2", "1=1;1=2", "1"), ("su2", "0=1; 1/2=1; 0.5=3", "1/2"), ("s3", "rho=1;rho=1", "rho")])
    def test_norms_label_assigned_twice_exits_2(self, capsys, dual, values, label):
        code, out, err = run_cli(capsys, "norms", "--dual", dual, "--values", values)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage",
                                   "message": f"--values: label {label} is assigned twice"}

    def test_norms_on_a_product_with_an_su2_factor_names_the_product(self, capsys):
        code, out, err = run_cli(capsys, "norms", "--dual", "su2,s3",
                                 "--values", "(1/2, rho)=1")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "usage",
            "message": "no class-function evaluation for <Hypergroup su2-hat x s3-hat (infinite)>"}

    def test_norms_numeric_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "norms", "--dual", "su2",
                               "--values", "0.5=1", "--p", "2",
                               "--quad-tol", "1e-30")
        assert code == 5
        assert json.loads(err)["error"] == "numeric"

    @pytest.mark.parametrize("error", [InternalInvariantError, AxiomViolationError])
    def test_library_faults_exit_6(self, capsys, monkeypatch, error):
        def handler(args, H):
            raise error("a fault")

        monkeypatch.setattr(hypergroups.cli, "_cmd_haar", handler)
        code, out, err = run_cli(capsys, "haar", "--dual", "s3")
        assert (code, out) == (6, "")
        assert json.loads(err) == {"error": "internal-invariant", "message": "a fault"}

    def test_norms_nan_quadrature_tolerance_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "norms", "--dual", "su2",
                               "--values", "1=1", "--quad-tol", "nan")
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_witness_nan_tolerance_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "witness", "--dual", "su2", "--D", "1.5",
                                 "--N", "2", "--format", "json", "--no-timestamp",
                                 "--tolerance", "nan")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "usage"

    def test_witness_past_the_support_cap_exits_4(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "witness", "--dual", "su2", "--D", "1.1", "--N", "7")
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "capacity"
        assert doc["message"].startswith("stage 6: ")

    def test_witness_csv(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "witness", "--dual", "su2", "--D", "1.5",
                             "--N", "3", "--p", "2", "--format", "csv",
                             "--no-timestamp", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("n,K_size,V_size,ratio")
        assert len(lines) == 4

    def test_witness_json_checks(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--dual", "s3", "--D", "1.5",
                               "--N", "2", "--p", "2", "--format", "json",
                               "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["multiplier_check"]["ok"] is True
        assert doc["blowup"]["rows"][0]["n"] == 1

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "leptin", "--dual", "su2", "--K", "1",
                              "--epsilon", "0.25", "--strategy", "interval",
                              "--format", "json", "--no-timestamp")
        _, second, _ = run_cli(capsys, "leptin", "--dual", "su2", "--K", "1",
                               "--epsilon", "0.25", "--strategy", "interval",
                               "--format", "json", "--no-timestamp")
        assert first == second

    def test_timestamp_present_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "haar", "--dual", "z2", "--format", "json")
        assert "generated_at" in json.loads(out)

    def test_csv_unavailable_for_non_tabular(self, capsys):
        code, _, err = run_cli(capsys, "convolve", "--dual", "s3", "--x", "rho",
                               "--y", "rho", "--format", "csv")
        assert code == 2
        assert json.loads(err)["error"] == "usage"


def _not_rational(text):
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return True
    return False


class TestMalformedNumbers:
    @pytest.mark.parametrize("argv,flag", [
        (["norms", "--dual", "s3", "--values", "rho=1", "--p", "nan"], "--p"),
        (["norms", "--dual", "s3", "--values", "rho=abc"], "--values"),
        (["norms", "--dual", "su2", "--values", "1=1", "--p", "1/0"], "--p"),
        (["witness", "--dual", "s3", "--D", "abc", "--N", "1"], "--D"),
        (["leptin", "--dual", "s3", "--K", "0", "--epsilon", "x"], "--epsilon"),
        (["haar", "--dual", "su2", "--max-ell", "x"], "--max-ell"),
        (["leptin", "--dual", "su2", "--K", "1/0", "--epsilon", "1",
          "--strategy", "interval"], "--K"),
        (["norms", "--dual", "s3", "--values", "rho=1", "--p", "1e400"], "--p"),
        (["norms", "--dual", "s3", "--values", "rho=1e400"], "--values"),
        (["bump", "--dual", "su2", "--K", "x", "--V", "0"], "--K"),
        (["bump", "--dual", "su2", "--K", "0", "--V", "-1"], "--V"),
        (["leptin", "--dual", "s3", "--K", "sigma", "--epsilon", "1"], "--K"),
        (["witness", "--dual", "su2", "--K0", "1/3"], "--K0"),
        (["axioms", "--dual", "s3,z4", "--sample", "rho"], "--sample"),
        (["haar", "--dual", "s3", "--labels", "9"], "--labels"),
        (["convolve", "--dual", "s3", "--x", "sigma", "--y", "triv"], "--x"),
        (["convolve", "--dual", "su2", "--x", "0", "--y", "1/3"], "--y"),
        (["norms", "--dual", "s3", "--values", "sigma=1"], "--values"),
        (["witness", "--dual", "z4", "--N", "0"], "--N"),
        (["witness", "--dual", "z4", "--max-size", "0"], "--max-size"),
        (["leptin", "--dual", "z4", "--K", "0", "--epsilon", "1", "--max-size", "0"],
         "--max-size"),
    ])
    def test_usage_error_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "usage"
        assert doc["message"].startswith(flag + ":")

    @pytest.mark.parametrize("argv,flag", [
        (["norms", "--dual", "s3", "--values", "rho=1", "--p", "1e10000000"], "--p"),
        (["witness", "--dual", "su2", "--p", "1e10000000"], "--p"),
        (["witness", "--dual", "su2", "--D", "1e10000000"], "--D"),
        (["witness", "--dual", "su2", "--D", "1e-10000000"], "--D"),
        (["leptin", "--dual", "s3", "--K", "0", "--epsilon", "1e10000000"], "--epsilon"),
        (["norms", "--dual", "s3", "--values", "rho=1e10000000"], "--values"),
    ])
    def test_huge_exponent_exits_2_at_once(self, capsys, argv, flag):
        # Fraction would expand each exponent into a ten-million-digit integer
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert json.loads(err)["message"].startswith(flag + ":")

    def test_table_component_with_a_huge_exponent_exits_3_at_once(self, capsys, tmp_path):
        doc = json.loads(resources.files("hypergroups.tables").joinpath("s3.json").read_text())
        doc["irreps"][2]["values"][1] = ["1e10000000", 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "axioms", "--dual", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "irreps[2].values[1]" in json.loads(err)["message"]

    @pytest.mark.parametrize("argv,flag", [
        (["convolve", "--dual", "s3", "--x=--", "--y", "triv"], "--x"),
        (["norms", "--dual", "s3", "--values=--"], "--values"),
        (["norms", "--dual", "s3", "--values", "rho=1", "--p=--"], "--p"),
        (["bump", "--dual", "su2", "--K", "0", "--V=--"], "--V"),
    ])
    def test_double_dash_value_exits_2(self, capsys, argv, flag):
        # argparse hands "--flag=--" over as an empty list, not as text
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["message"].startswith(flag + ":")

    @given(text=st.text(max_size=12).filter(_not_rational))
    @settings(max_examples=80, deadline=None)
    def test_any_non_rational_p_exits_2(self, text):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["norms", "--dual", "s3", "--values", "rho=1", f"--p={text}"])
        assert code == 2
        assert json.loads(err.getvalue())["error"] == "usage"


class TestWitnessTolerancesCheckedFirst:
    @pytest.mark.parametrize("flag", ["--tolerance", "--quad-tol"])
    def test_nan_exits_before_building(self, capsys, monkeypatch, flag):
        calls = []
        monkeypatch.setattr(hypergroups.cli, "build_witness",
                            lambda *args, **kwargs: calls.append(args))
        code, out, err = run_cli(capsys, "witness", "--dual", "su2", "--D", "1.1",
                                 flag, "nan")
        assert code == 2
        assert json.loads(err)["error"] == "usage"
        assert calls == []
