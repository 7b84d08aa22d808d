"""Command-line front end.

Subcommands mirror the library: axioms, haar, convolve, leptin, bump,
norms, witness.  Duals are specified as comma-separated component specs
("su2", a bundled table name, or a path to a character-table JSON file);
multiple components form a product dual.  Exact rationals are
rendered as "p/q" strings so reports re-parse losslessly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any

from .core import (
    MAX_HAAR_ROWS,
    CapacityError,
    FiniteFunction,
    HypergroupError,
    UsageError,
    check_axioms,
    count,
    convolve_h,
    exact_in_float_range,
    fraction_text,
    label_count,
)
from .duals import (
    BUILTIN_TABLES,
    Dual,
    Su2Dual,
    _split_outside_parentheses,
    builtin_table,
    finite_group_dual,
    load_character_table,
    product_dual,
    su2_dual,
)
from .fourier import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    QuadratureValue,
    a_norm,
    bump,
    lp_h_norm,
)
from .leptin import STRATEGIES, leptin_search
from .segal import (
    blowup_report,
    build_witness,
    check_multiplier_bounded,
    check_tolerance,
)

def _resolve_component(spec: str) -> Dual:
    if spec == "su2":
        return su2_dual()
    if spec in BUILTIN_TABLES:
        return finite_group_dual(builtin_table(spec))
    if not Path(spec).exists():
        raise UsageError(
            f"unknown dual component {spec!r}: not 'su2', not a bundled table "
            f"{BUILTIN_TABLES}, and no such file")
    return finite_group_dual(load_character_table(spec))


def resolve_dual(spec: str) -> Dual:
    parts = [part.strip() for part in spec.split(",") if part.strip()]
    if not parts:
        raise UsageError("empty dual spec")
    duals = [_resolve_component(part) for part in parts]
    if len(duals) == 1:
        return duals[0]
    return product_dual(duals)


def parse_labels(H: Dual, text: str, flag: str) -> list[Any]:
    return [H.parse_label(part, flag) for part in _split_outside_parentheses(text) if part.strip()]


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _emit(args: argparse.Namespace, payload: dict[str, Any],
          csv_text: str | None = None, pretty_text: str | None = None) -> None:
    payload = {"command": args.command, "dual": args.dual, **payload}
    if not args.no_timestamp:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        if csv_text is None:
            raise UsageError(f"the {args.command} report has no CSV form")
        text = csv_text
    else:
        text = (pretty_text if pretty_text is not None
                else json.dumps(payload, indent=2, sort_keys=True)) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dual", required=True,
                        help="comma-separated dual spec: su2, a bundled table "
                             f"name {BUILTIN_TABLES}, or a JSON file path")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="suppress the generated_at field for byte-identical output")


def _add_quad(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quad-tol", type=float, default=DEFAULT_QUADRATURE.tolerance)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_axioms(args: argparse.Namespace, H: Dual) -> None:
    if args.sample:
        sample = parse_labels(H, args.sample, "--sample")
    else:
        sample = H.spin_sample(exact_in_float_range(args.max_ell, "--max-ell"), "--max-ell")
    report = check_axioms(H, sample)
    _emit(args, {"report": report.to_json_dict()}, pretty_text=report.summary())


def _cmd_haar(args: argparse.Namespace, H: Dual) -> None:
    if args.labels:
        labels = parse_labels(H, args.labels, "--labels")
    elif H.universe is not None:
        labels = list(H.universe)
    else:
        labels = H.spin_sample(exact_in_float_range(args.max_ell, "--max-ell"), "--max-ell")
    size = label_count(labels)
    if size > MAX_HAAR_ROWS:
        raise CapacityError(f"the haar listing has {size} labels, "
                            f"more than the {MAX_HAAR_ROWS} it may print")
    rows = [(H.label_str(x), H.haar(x)) for x in labels]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("label", "haar"))
    for name, mass in rows:
        writer.writerow((name, fraction_text(mass)))
    _emit(args,
          {"masses": {name: fraction_text(mass) for name, mass in rows}},
          csv_text=buf.getvalue(),
          pretty_text="\n".join(f"h({name}) = {mass}" for name, mass in rows))


def _cmd_convolve(args: argparse.Namespace, H: Dual) -> None:
    x = H.parse_label(args.x, "--x")
    y = H.parse_label(args.y, "--y")
    if args.weighted:
        result = convolve_h(H, FiniteFunction.point(x), FiniteFunction.point(y))
        entries = result.items()
    else:
        entries = H.fuse(x, y).items()
    payload = {H.label_str(z): fraction_text(v) for z, v in entries}
    _emit(args, {"x": args.x, "y": args.y, "weighted": bool(args.weighted),
                 "result": payload},
          pretty_text="\n".join(f"{k}: {v}" for k, v in payload.items()))


def _cmd_leptin(args: argparse.Namespace, H: Dual) -> None:
    K, eps = parse_labels(H, args.K, "--K"), exact_in_float_range(args.epsilon, "--epsilon")
    cert = leptin_search(H, K, eps, args.strategy, max_size=count(args.max_size, "--max-size"))
    doc = cert.to_json_dict()
    pretty = (f"strategy: {doc['strategy']}\nratio: {doc['ratio']} "
              f"(= {float(cert.ratio):.6f})\nepsilon: {doc['epsilon']}\n"
              f"|K| = {len(doc['K'])}, |V| = {len(doc['V'])}\n"
              f"verified: {doc['verified']}")
    _emit(args, {"certificate": doc}, pretty_text=pretty)


def _put_a_norm(doc: dict[str, Any], a: Any) -> None:
    """``a_norm`` as a float, and beside a quadrature value its ``a_residual``."""
    doc["a_norm"] = float(a)
    if isinstance(a, QuadratureValue):
        doc["a_residual"] = a.residual


def _cmd_bump(args: argparse.Namespace, H: Dual) -> None:
    plateau = bump(H, parse_labels(H, args.K, "--K"), parse_labels(H, args.V, "--V"))
    doc: dict[str, Any] = {
        "K": sorted(H.label_str(x) for x in plateau.K),
        "V": sorted(H.label_str(x) for x in plateau.V),
        "ratio": fraction_text(plateau.ratio),
        "a_norm_bound": plateau.a_norm_bound,
        "values": {H.label_str(x): fraction_text(v)
                   for x, v in plateau.function.items()},
        "verified": True,
    }
    if args.measure_a_norm:
        _put_a_norm(doc, plateau.a_norm(QuadratureConfig(tolerance=args.quad_tol)))
    _emit(args, {"bump": doc}, pretty_text=json.dumps(doc, indent=2, sort_keys=True))


def _cmd_norms(args: argparse.Namespace, H: Dual) -> None:
    values: dict[Any, Fraction] = {}
    for assignment in args.values.split(";"):
        assignment = assignment.strip()
        if not assignment:
            continue
        if "=" not in assignment:
            raise UsageError(f"bad assignment {assignment!r}; use label=value")
        label_text, _, value_text = assignment.partition("=")
        value = exact_in_float_range(value_text, "--values")
        label = H.parse_label(label_text, "--values")
        if label in values:
            raise UsageError(f"--values: label {H.label_str(label)} is assigned twice")
        values[label] = value
    f = FiniteFunction(values)
    p = exact_in_float_range(args.p, "--p")
    doc: dict[str, Any] = {
        "l1_h": fraction_text(lp_h_norm(H, f, 1)),
        "lp_h": float(lp_h_norm(H, f, p)),
        "p": fraction_text(p),
    }
    if 1 <= p <= 2:  # where the lp(H, h) norm of a central function is a Segal norm
        doc["segal_cp"] = doc["lp_h"]
    a = a_norm(H, f, QuadratureConfig(tolerance=args.quad_tol))
    _put_a_norm(doc, a)
    if isinstance(a, Fraction):
        doc["a_norm_exact"] = fraction_text(a)
    _emit(args, {"norms": doc}, pretty_text=json.dumps(doc, indent=2, sort_keys=True))


def _cmd_witness(args: argparse.Namespace, H: Dual) -> None:
    strategy = args.strategy
    if strategy == "auto":
        strategy = "interval" if isinstance(H, Su2Dual) else "greedy"
    if args.K0:
        k0 = parse_labels(H, args.K0, "--K0")
    else:
        k0 = [H.identity]
    D = exact_in_float_range(args.D, "--D")
    p = exact_in_float_range(args.p, "--p")
    quad = QuadratureConfig(tolerance=args.quad_tol)
    check_tolerance(args.tolerance)
    w = build_witness(H, k0, D, count(args.N, "--N"), search=strategy,
                      max_size=count(args.max_size, "--max-size"))
    report = blowup_report(w, p, config=quad)
    checks = check_multiplier_bounded(w, config=quad, tolerance=args.tolerance)
    payload = {
        "D": args.D,
        "N": args.N,
        "strategy": strategy,
        "blowup": report.to_json_dict(),
        "multiplier_check": checks.to_json_dict(),
    }
    pretty_lines = [
        f"witness on {H.name}: N={args.N}, D={args.D}, strategy={strategy}",
        report.to_csv_text().rstrip("\n"),
        f"growth factor: {report.growth_factor:.6g}",
        f"max A-norm: {checks.max_a_value:.9f} (cap {checks.cap} + {checks.tolerance})",
        f"chain law: {'ok' if checks.product_ok else 'FAILED'}",
        f"overall: {'ok' if checks.ok else 'FAILED'}",
    ]
    # like the axiom suite, check outcomes are data: the report carries ok
    _emit(args, payload, csv_text=report.to_csv_text(),
          pretty_text="\n".join(pretty_lines))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypergroups",
        description="Exact computation in duals of compact groups: fusion, "
                    "Haar masses, Leptin searches, plateau functions, and "
                    "Segal-norm blowup demonstrations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="run the exact axiom suite on a sample")
    _add_common(p)
    p.add_argument("--max-ell", default="2", help="spin cutoff for su2 samples")
    p.add_argument("--sample", default=None, help="explicit comma-separated labels")
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("haar", help="print exact Haar masses")
    _add_common(p)
    p.add_argument("--max-ell", default="3")
    p.add_argument("--labels", default=None)
    p.set_defaults(fn=_cmd_haar)

    p = sub.add_parser("convolve", help="fusion of two points")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--weighted", action="store_true",
                   help="use the weighted L1(H, h) convolution instead")
    p.set_defaults(fn=_cmd_convolve)

    p = sub.add_parser("leptin", help="search for a Leptin witnessing set")
    _add_common(p)
    p.add_argument("--K", required=True,
                   help="labels; the interval strategy widens them to the interval "
                        "below the top one")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="greedy")
    p.add_argument("--max-size", type=int, default=64)
    p.set_defaults(fn=_cmd_leptin)

    p = sub.add_parser("bump", help="build and verify a plateau function")
    _add_common(p)
    _add_quad(p)
    p.add_argument("--K", required=True)
    p.add_argument("--V", required=True)
    p.add_argument("--measure-a-norm", action="store_true")
    p.set_defaults(fn=_cmd_bump)

    p = sub.add_parser("norms", help="evaluate the norm family on a function")
    _add_common(p)
    _add_quad(p)
    p.add_argument("--values", required=True, help="label=value;label=value")
    p.add_argument("--p", default="2")
    p.set_defaults(fn=_cmd_norms)

    p = sub.add_parser("witness", help="build the blowup witness sequence")
    _add_common(p)
    _add_quad(p)
    p.add_argument("--K0", default=None, help="seed labels (default: identity)")
    p.add_argument("--D", default="1.1", help="A-norm cap, exact decimal")
    p.add_argument("--N", type=int, default=5)
    p.add_argument("--p", default="2")
    p.add_argument("--strategy", choices=("auto",) + STRATEGIES, default="auto")
    p.add_argument("--max-size", type=int, default=64)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(fn=_cmd_witness)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse reads "--x=--" as an empty list
                raise UsageError(f"--{name.replace('_', '-')}: expected a value, got {value!r}")
        args.fn(args, resolve_dual(args.dual))
        return 0
    except HypergroupError as exc:
        sys.stderr.write(json.dumps({"error": exc.category, "message": str(exc)}) + "\n")
        return exc.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
