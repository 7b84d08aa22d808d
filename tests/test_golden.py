"""CLI reports against checked-in outputs.

Each file under ``golden/`` is the ``--no-timestamp`` output of the command
beside it below.  A report must match its file byte for byte, except the
quadrature A-norms, which may move within the run's ``--quad-tol``: another
quadrature rule that meets the tolerance changes no result.  To regenerate
a file, run its command with ``--no-timestamp --out tests/golden/<file>``.
"""

import re
from pathlib import Path

import pytest

from hypergroups.cli import run

GOLDEN = Path(__file__).parent / "golden"
QUAD_TOL = 1e-9  # the --quad-tol default, which every command below uses

CASES = [
    ("witness_su2_n4.csv",
     ["witness", "--dual", "su2", "--D", "1.1", "--N", "4", "--p", "2", "--format", "csv"],
     ["a_value"]),
    ("witness_s3_q8_z2.json",
     ["witness", "--dual", "s3,q8,z2", "--D", "1.1", "--N", "3", "--strategy", "greedy",
      "--p", "2", "--format", "json"],
     []),
    ("axioms_s3_q8_z2.json", ["axioms", "--dual", "s3,q8,z2", "--format", "json"], []),
    ("axioms_su2_ell7.json",
     ["axioms", "--dual", "su2", "--max-ell", "7", "--format", "json"], []),
    ("bump_su2.json",
     ["bump", "--dual", "su2", "--K", "1/2", "--V", "0,1/2,1", "--measure-a-norm",
      "--format", "json"],
     ["a_norm"]),
    ("norms_s3.json", ["norms", "--dual", "s3", "--values", "rho=1", "--format", "json"], []),
    # the class-sum A-norm: exact 4/3 on a product, the float (2 + 2 sqrt 2)/4 on Z4
    ("norms_s3_z4.json",
     ["norms", "--dual", "s3,z4", "--values", "(rho, chi1)=1", "--format", "json"], []),
    ("norms_z4.json",
     ["norms", "--dual", "z4", "--values", "chi0=1;chi1=1", "--format", "json"], []),
    # product class values from the factor tables: float moduli on Z4 x Z4, exact 7/6 on three
    ("norms_z4_z4.json",
     ["norms", "--dual", "z4,z4", "--values", "(chi0, chi0)=1;(chi1, chi1)=1",
      "--format", "json"], []),
    ("norms_s3_q8_z2.json",
     ["norms", "--dual", "s3,q8,z2", "--values", "(rho, chi_k, sgn)=1/2;(sgn, chi_i, triv)=1",
      "--format", "json"], []),
    # the searches: a proper subgroup's V and the whole universe, then both greedy engines
    ("leptin_exhaustive_s3_z4_chi2.json",
     ["leptin", "--dual", "s3,z4", "--strategy", "exhaustive", "--K", "triv|chi0,triv|chi2",
      "--epsilon", "1/2", "--format", "json"], []),
    ("leptin_exhaustive_s3_z4_rho.json",
     ["leptin", "--dual", "s3,z4", "--strategy", "exhaustive", "--K", "triv|chi1,rho|chi0",
      "--epsilon", "1/2", "--format", "json"], []),
    ("leptin_greedy_s3_z4.json",
     ["leptin", "--dual", "s3,z4", "--strategy", "greedy", "--K", "rho|chi1,sgn|chi2",
      "--epsilon", "1/4", "--format", "json"], []),
    ("leptin_greedy_su2.json",
     ["leptin", "--dual", "su2", "--strategy", "greedy", "--K", "1,2", "--epsilon", "1/4",
      "--format", "json"], []),
    # the haar command, and convolve both weighted and by point fusion
    ("haar_s3_z4.json", ["haar", "--dual", "s3,z4", "--format", "json"], []),
    ("convolve_su2_weighted.json",
     ["convolve", "--dual", "su2", "--x", "1", "--y", "3/2", "--weighted", "--format", "json"],
     []),
    ("convolve_s3_z4.json",
     ["convolve", "--dual", "s3,z4", "--x", "rho|chi1", "--y", "rho|chi3", "--format", "json"],
     []),
]


def split_quadrature(text: str, csv: bool, fields: list[str]) -> tuple[str, list[float]]:
    """The report with each quadrature value replaced by "*", and those values in order."""
    values: list[float] = []
    if not fields:
        return text, values
    if csv:
        header, *rows = text.splitlines(keepends=True)
        columns = [header.rstrip("\n").split(",").index(name) for name in fields]
        out = [header]
        for row in rows:
            cells = row.rstrip("\n").split(",")
            for c in columns:
                values.append(float(cells[c]))
                cells[c] = "*"
            out.append(",".join(cells) + "\n")
        return "".join(out), values

    def mark(match: re.Match) -> str:
        values.append(float(match.group(2)))
        return match.group(1) + "*"

    pattern = re.compile(r'("(?:%s)": )(-?[0-9][0-9.eE+-]*)' % "|".join(fields))
    return pattern.sub(mark, text), values


@pytest.mark.parametrize("name,argv,quadrature", CASES, ids=[case[0] for case in CASES])
def test_report_matches_golden(tmp_path, name, argv, quadrature):
    out = tmp_path / name
    assert run(argv + ["--no-timestamp", "--out", str(out)]) == 0
    csv = name.endswith(".csv")
    got, got_values = split_quadrature(out.read_text(), csv, quadrature)
    want, want_values = split_quadrature((GOLDEN / name).read_text(), csv, quadrature)
    assert got == want
    assert len(got_values) == len(want_values)
    for g, w in zip(got_values, want_values):
        assert abs(g - w) <= QUAD_TOL, (g, w)


def test_quadrature_values_are_masked():
    text = (GOLDEN / "bump_su2.json").read_text()
    masked, values = split_quadrature(text, False, ["a_norm"])
    assert values == [1.3103174567012075]
    assert '"a_norm": *,' in masked and '"a_norm_bound": 1.46' in masked
    masked, values = split_quadrature((GOLDEN / "witness_su2_n4.csv").read_text(), True,
                                      ["a_value"])
    assert len(values) == 4 and masked.count(",*,") == 4
