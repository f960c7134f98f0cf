"""Command-line front end.

Subcommands: list, show, inv, classify, verify-all, cone.  Human-readable
tables go to stdout; --json writes deterministic JSON (sorted keys,
rationals as "p/q" strings).  Exit codes: 0 success/match, 1 verification
mismatch, 2 input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from dataclasses import dataclass

from .classifier import classify, curve_violation_scan, verify_all
from .cones import Cone, contains, minimal_supported_face
from .database import FanoRecord, load_builtin, load_file, record_to_json, validate
from .errors import FanobalanceError, LowConfidenceWarning
from .intersection import DivisorClass
from .invariants import compute_report
from .linalg import format_fraction, qvec

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


@dataclass
class CliConfig:
    command: str
    target: str | None = None
    divisor: str | None = None
    json_out: str | None = None
    verbosity: int = 0
    db: str | None = None
    op: str | None = None
    vec: str | None = None


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _mark(ok: bool) -> str:
    text = "ok" if ok else "MISMATCH"
    if not _use_color():
        return text
    return f"\033[32m{text}\033[0m" if ok else f"\033[31m{text}\033[0m"


def _dump_json(data, path: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_records(cfg: CliConfig) -> list[FanoRecord]:
    if cfg.db:
        return load_file(cfg.db)
    return load_builtin()


def _find(records: list[FanoRecord], name: str) -> FanoRecord:
    for rec in records:
        if rec.name == name:
            return rec
    raise FanobalanceError(f"no record named {name!r} (try 'list')")


def _parse_divisor(rec: FanoRecord, text: str) -> DivisorClass:
    coords = qvec(text.split(","))
    if len(coords) != rec.rank:
        raise FanobalanceError(
            f"divisor has {len(coords)} coordinates, record rank is {rec.rank}")
    return DivisorClass(coords)


def _print_warnings(caught) -> None:
    for item in caught:
        if issubclass(item.category, LowConfidenceWarning):
            print(f"warning (low confidence): {item.message}", file=sys.stderr)


def _cmd_list(cfg: CliConfig) -> int:
    records = _load_records(cfg)
    header = f"{'name':<16} {'rank':>4} {'index':>5} {'degree':>6}  expected verdict"
    print(header)
    print("-" * len(header))
    for rec in sorted(records, key=lambda r: r.name):
        index = rec.index if rec.index is not None else "-"
        print(f"{rec.name:<16} {rec.rank:>4} {index!s:>5} {rec.degree:>6}  "
              f"{rec.expected_verdict}")
    return EXIT_OK


def _cmd_show(cfg: CliConfig) -> int:
    rec = _find(_load_records(cfg), cfg.target)
    data = record_to_json(rec)
    if cfg.json_out is not None:
        _dump_json(data, cfg.json_out)
        return EXIT_OK
    print(f"{rec.name}: dim {rec.dim}, Picard rank {rec.rank}, degree {rec.degree}")
    if rec.index is not None:
        print(f"  index: {rec.index}")
    if rec.rays:
        rays = ", ".join(f"{r.ray_type} (length {r.length})" for r in rec.rays)
        print(f"  extremal rays: {rays}")
    anti = ",".join(format_fraction(c) for c in rec.anticanonical.coords)
    print(f"  anticanonical class: ({anti})")
    print(f"  expected: {rec.expected_verdict}"
          + (f", exceptional set: {rec.expected_exceptional_set}"
             if rec.expected_exceptional_set else ""))
    if cfg.verbosity > 0:
        print(json.dumps(data, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_inv(cfg: CliConfig) -> int:
    rec = _find(_load_records(cfg), cfg.target)
    cls = _parse_divisor(rec, cfg.divisor) if cfg.divisor else rec.anticanonical
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = compute_report(rec, cls)
    _print_warnings(caught)
    print(f"a = {format_fraction(report.a)}")
    print(f"b = {report.b}")
    adjoint = ",".join(format_fraction(c) for c in report.adjoint.coords)
    print(f"adjoint class: ({adjoint})")
    print(f"witness facets: {report.witness_facets}")
    if cfg.json_out is not None:
        _dump_json(report.to_json(), cfg.json_out)
    return EXIT_OK


def _cmd_classify(cfg: CliConfig) -> int:
    rec = _find(_load_records(cfg), cfg.target)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdict = classify(rec)
    _print_warnings(caught)
    print(f"{rec.name}: {verdict.level}")
    print(f"exceptional set: {verdict.exceptional_set}")
    if cfg.verbosity > 0:
        for witness in verdict.witnesses:
            print(f"  [{witness.outcome.a_cmp.value},{witness.outcome.b_cmp.value}] "
                  f"{witness.description}")
        lines = curve_violation_scan(rec)
        if lines:
            classes = ", ".join("(" + ",".join(format_fraction(c) for c in v) + ")"
                                for v in lines)
            print(f"  curve classes that can beat a(X): {classes}")
    if cfg.json_out is not None:
        _dump_json(verdict.to_json(), cfg.json_out)
    return EXIT_OK


def _cmd_verify_all(cfg: CliConfig) -> int:
    records = _load_records(cfg)
    if not records:
        print("warning: no records to verify; vacuous pass", file=sys.stderr)
    for rec in records:
        problems = validate(rec)
        if problems:
            print(f"{rec.name}: INVALID: {'; '.join(problems)}")
            return EXIT_MISMATCH
    report = verify_all(records)
    for row in report["results"]:
        print(f"{row['name']:<16} computed={row['computed']:<18} "
              f"expected={row['expected']:<18} {_mark(row['match'])}")
    summary = report["summary"]
    print(f"summary: {summary['pass']} matched, {summary['fail']} mismatched, "
          f"{summary['unclassified']} unclassified")
    if summary["fail"] == 0:
        print("all classified entries match the rank-1 and rank-2 classification")
    if cfg.json_out is not None:
        _dump_json(report, cfg.json_out)
    return EXIT_OK if summary["fail"] == 0 else EXIT_MISMATCH


def _cmd_cone(cfg: CliConfig) -> int:
    if cfg.op not in ("dualize", "member", "face"):
        raise FanobalanceError(f"unknown cone operation {cfg.op!r} "
                               "(choose dualize, member, or face)")
    with open(cfg.target, encoding="utf-8") as fh:
        data = json.load(fh)
    cone = Cone.from_json(data)
    if cfg.op == "dualize":
        _dump_json(cone.to_json(), cfg.json_out)
        return EXIT_OK
    if not cfg.vec:
        raise FanobalanceError(f"cone --op {cfg.op} needs a comma-separated vector")
    vec = qvec(cfg.vec.split(","))
    if cfg.op == "member":
        print("true" if contains(cone, vec) else "false")
        return EXIT_OK
    face, codim = minimal_supported_face(cone, vec)
    print(f"codim = {codim}")
    _dump_json({"codim": codim, "face": face.to_json()}, None)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanobal",
        description="Exact cone invariants and the balanced classification "
                    "of the builtin Fano threefold records.")
    parser.add_argument("--db", help="record database JSON file (default: builtin)")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list database records")

    p_show = sub.add_parser("show", help="show one record")
    p_show.add_argument("name")
    p_show.add_argument("--json", dest="json_out", nargs="?", const="", default=None)

    p_inv = sub.add_parser("inv", help="compute the (a, b) invariants")
    p_inv.add_argument("name")
    p_inv.add_argument("--divisor", help="comma-separated coordinates (default: -K)")
    p_inv.add_argument("--json", dest="json_out", nargs="?", const="", default=None)

    p_classify = sub.add_parser("classify", help="run the balanced decision procedure")
    p_classify.add_argument("name")
    p_classify.add_argument("--json", dest="json_out", nargs="?", const="", default=None)

    p_verify = sub.add_parser("verify-all", help="check every record against its "
                                                 "expected verdict")
    p_verify.add_argument("--json", dest="json_out", nargs="?", const="", default=None)

    p_cone = sub.add_parser("cone", help="polyhedral cone operations on a JSON file")
    p_cone.add_argument("file")
    p_cone.add_argument("--op", required=True, nargs="+", metavar=("OP", "VEC"),
                        help="dualize | member VEC | face VEC "
                             "(VEC is comma-separated coordinates)")
    # let vectors with a negative leading coordinate ("-1,0") parse as values
    p_cone._negative_number_matcher = re.compile(r"^-\d+(?:[/,]-?\d+)*$")

    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    # json_out: None = no JSON, "" = "--json" without a path (stdout), else a path
    op_parts = getattr(args, "op", None) or []
    return CliConfig(
        command=args.command,
        target=getattr(args, "name", None) or getattr(args, "file", None),
        divisor=getattr(args, "divisor", None),
        json_out=getattr(args, "json_out", None),
        verbosity=args.verbose,
        db=args.db,
        op=op_parts[0] if op_parts else None,
        vec=op_parts[1] if len(op_parts) > 1 else None,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args)
    handlers = {
        "list": _cmd_list,
        "show": _cmd_show,
        "inv": _cmd_inv,
        "classify": _cmd_classify,
        "verify-all": _cmd_verify_all,
        "cone": _cmd_cone,
    }
    try:
        return handlers[cfg.command](cfg)
    except FanobalanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: run with --help for the accepted grammar", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
