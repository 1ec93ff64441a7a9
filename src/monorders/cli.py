"""Command line front end.

Subcommands: check, classify, dual, projective, overorders, census.
Exit codes: 0 success, 1 negative verdict for a queried predicate, 2 input
or configuration error, 3 internal consistency failure (the structural
classifier and the brute-force oracle disagree, which would falsify a
theorem implementation and is therefore reported loudly).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys

from .errors import MonordersError, NotALatticeError
from .census import FILTERS, CensusQuery, census, match_family
from .classify import classify
from .duality import dual_level, projective_witness
from .families import load_families
from .levelio import _INT, _parse_int, load_level
from .levels import (
    DEFAULT_SEARCH_CAP, _require_order, _violation_text, normalize_positive, order_violation,
)
from .oracle import DEFAULT_BUDGET, bass_oracle, overorder_bound, overorders

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_DISAGREEMENT = 3

BUDGET_ENV = "MONORDERS_BUDGET"
# every --format json line; its payload is a tree built for it, so no cycle check is needed
_encode = json.JSONEncoder(check_circular=False).encode


def _positive_int(raw):
    # the rule for --budget, --cap and MONORDERS_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return value


def _budget(flag):
    if flag is not None:
        return flag
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise MonordersError(f"{BUDGET_ENV} {exc}")


def format_level_compact(m) -> str:
    return "[" + "; ".join(" ".join(str(e) for e in row) for row in m.entries) + "]"


def format_level_block(m) -> str:
    return "  " + str(m).replace("\n", "\n  ")  # each row indented as the dump lines are


def _yesno(flag) -> str:
    return "yes" if flag else "no"


def _add_format(parser):
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monorders",
        description="Decide whether integer level matrices define orders and "
        "classify them (Gorenstein, Eichler, hereditary, Bass).",
        epilog="Exit codes: 0 success; 1 negative verdict; 2 input error; "
        "3 classifier/oracle disagreement.  The environment variable "
        f"{BUDGET_ENV} overrides the default oracle budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each subcommand's parser, by name, for main

    p_check = sub.add_parser("check", help="test the order condition")
    p_check.add_argument("file", help="level file (text or JSON)")
    _add_format(p_check)
    p_check.set_defaults(func=cmd_check)

    p_classify = sub.add_parser("classify", help="full classification report")
    p_classify.add_argument("file")
    _add_format(p_classify)
    p_classify.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the Bass verdict against the brute-force overorder oracle",
    )
    p_classify.add_argument("--budget", type=_positive_int, default=None, help="oracle search budget")
    p_classify.add_argument(
        "--cap", type=_positive_int, default=DEFAULT_SEARCH_CAP, help="canonical-form size cap (default %(default)s)"
    )
    p_classify.set_defaults(func=cmd_classify)

    p_dual = sub.add_parser("dual", help="dual module level (raw and normalized)")
    p_dual.add_argument("file")
    _add_format(p_dual)
    p_dual.set_defaults(func=cmd_dual)

    p_proj = sub.add_parser("projective", help="test a column lattice type for projectivity")
    p_proj.add_argument("file")
    p_proj.add_argument(
        "--type",
        required=True,
        dest="type_vector",
        help="comma- or space-separated integer exponents, e.g. '0,1,2,2'; attach a vector "
        "that starts with a negative exponent with '=', as in --type=-1,2,0",
    )
    _add_format(p_proj)
    p_proj.set_defaults(func=cmd_projective)

    p_over = sub.add_parser("overorders", help="enumerate all orders containing the input")
    p_over.add_argument("file")
    _add_format(p_over)
    p_over.add_argument("--budget", type=_positive_int, default=None, help="search budget")
    p_over.add_argument("--dump", action="store_true", help="list every member")
    p_over.set_defaults(func=cmd_overorders)

    p_census = sub.add_parser("census", help="enumerate conjugacy classes of orders")
    p_census.add_argument("n", type=int, help="matrix size")
    p_census.add_argument("--bound", type=int, default=1, help="entry bound (default 1)")
    p_census.add_argument(
        "--filter",
        action="append",
        choices=FILTERS,
        default=None,
        help="keep only classes with this property (repeatable)",
    )
    _add_format(p_census)
    p_census.add_argument("--dump", action="store_true", help="list every class")
    p_census.add_argument(
        "--families",
        action="store_true",
        help="match Gorenstein classes against the 4x4 family table (n=4 only)",
    )
    p_census.add_argument("--budget", type=_positive_int, default=None, help="raw-space budget")
    p_census.add_argument(
        "--cap", type=_positive_int, default=DEFAULT_SEARCH_CAP, help="canonical-form size cap (default %(default)s)"
    )
    p_census.set_defaults(func=cmd_census)

    return parser


def cmd_check(args) -> int:
    level = load_level(args.file)
    witness = order_violation(level)
    if args.format == "json":
        print(_encode({"is_order": witness is None, "violation": witness}))
    else:
        print(f"order: {_yesno(witness is None)}")
        if witness is not None:
            print("violation: " + _violation_text(witness))
    return EXIT_OK if witness is None else EXIT_NEGATIVE


def cmd_classify(args) -> int:
    level = load_level(args.file)
    budget = _budget(args.budget)
    report = classify(level, args.cap)
    oracle = None
    if args.oracle and report.is_order:
        verdict, witness = bass_oracle(level, budget)
        oracle = {
            "is_bass": verdict,
            "agrees": verdict == report.is_bass,
            "witness": None if witness is None else witness.to_lists(),
        }

    if args.format == "json":
        payload = report.to_dict()
        if oracle is not None:
            payload["oracle"] = oracle
        print(_encode(payload))
    else:
        _print_report_text(level, report, oracle)

    if oracle is not None and not oracle["agrees"]:
        print(
            "error: classifier and brute-force oracle disagree on the Bass verdict",
            file=sys.stderr,
        )
        return EXIT_DISAGREEMENT
    return EXIT_OK if report.is_order else EXIT_NEGATIVE


def _print_report_text(level, report, oracle):
    print("level:")
    print(format_level_block(level))
    print(f"order: {_yesno(report.is_order)}")
    if not report.is_order:
        print("violation: " + _violation_text(report.order_violation))
        return
    print("canonical:")
    print(format_level_block(report.canonical))
    print(f"gorenstein: {_yesno(report.is_gorenstein)}")
    if report.is_gorenstein:
        parts = [
            f"row {i} -> column {j}, c={c}"
            for i, (c, j) in enumerate(report.gorenstein_witnesses, start=1)
        ]
        print("  witnesses: " + "; ".join(parts))
    else:
        print(f"  failing row: {report.gorenstein_failing_row}")
    if report.eichler is None:
        print("eichler: no")
    else:
        shape = report.eichler
        inv = ",".join(str(k) for k in shape.invariant)
        suffix = "" if shape.a is None else f", a={shape.a}"
        print(f"eichler: period {shape.period}, invariant ({inv}){suffix}")
    print(f"hereditary: {_yesno(report.is_hereditary)}")
    print(f"bass: {_yesno(report.is_bass)} ({report.bass_reason})")
    if oracle is not None:
        print(f"oracle bass: {_yesno(oracle['is_bass'])} "
              f"({'agrees' if oracle['agrees'] else 'DISAGREES'})")


def cmd_dual(args) -> int:
    level = load_level(args.file)
    _require_order(level)
    dual = dual_level(level)
    if args.format == "json":
        print(_encode({"raw": dual.raw.to_lists(), "normalized": dual.normalized.to_lists()}))
    else:
        print("raw dual:")
        print(format_level_block(dual.raw))
        print("normalized dual:")
        print(format_level_block(dual.normalized))
    return EXIT_OK


def _parse_type_vector(raw, n):
    tokens = raw.replace(",", " ").split()
    if not all(map(_INT.fullmatch, tokens)):
        raise MonordersError(f"type vector must be integers, got {raw!r}")
    values = tuple(map(_parse_int, tokens))
    if len(values) != n:
        raise MonordersError(f"type vector has length {len(values)}, expected {n}")
    return values


def cmd_projective(args) -> int:
    level = load_level(args.file)
    form = normalize_positive(level)
    lattice_type = _parse_type_vector(args.type_vector, level.n)
    normalized = form.level
    adjusted = tuple(t + s for t, s in zip(lattice_type, form.applied.shifts))
    try:
        witness = projective_witness(normalized, adjusted)
    except NotALatticeError as exc:
        if args.format == "json":
            print(_encode({
                "is_lattice": False,
                "is_projective": False,
                "lattice_violation": exc.witness,
            }))
        else:
            i, j = exc.witness
            print("lattice: no")
            print(f"violation: m[{i},{j}] + l[{j}] < l[{i}]")
        return EXIT_NEGATIVE
    if args.format == "json":
        payload = {
            "is_lattice": True,
            "is_projective": witness is not None,
            "witness": witness,
            "normalized_level": normalized.to_lists(),
            "normalized_type": adjusted,
        }
        print(_encode(payload))
    else:
        print("lattice: yes")
        if witness is None:
            print("projective: no")
        else:
            j, c = witness
            print(f"projective: yes (column {j}, shift c={c})")
    return EXIT_OK if witness is not None else EXIT_NEGATIVE


def cmd_overorders(args) -> int:
    level = load_level(args.file)
    _require_order(level)  # overorders checks it too, but a non-order goes before a bad budget
    result = overorders(level, _budget(args.budget))
    if args.format == "json":
        payload = {"count": len(result), "bound": overorder_bound(level)}
        if args.dump:
            payload["members"] = [member.to_lists() for member in result]
        print(_encode(payload))
    else:
        print(f"overorders: {len(result)} (search bound {overorder_bound(level)})")
        if args.dump:
            for member in result:
                print("  " + format_level_compact(member))
    return EXIT_OK


def cmd_census(args) -> int:
    if args.families and args.n != 4:
        raise MonordersError("--families requires n=4")
    if args.families:
        load_families()  # a missing table is refused before any output
    budget = _budget(args.budget)
    query = CensusQuery(args.n, args.bound, args.filter or ())
    result = census(query, budget, args.cap)

    if args.format == "json":
        for cls in result.classes:
            report = cls.report.to_dict()  # its canonical level is the class level
            line = {"canonical": report["canonical"], "count": cls.count, "report": report}
            if args.families:
                line["family"] = _family_match(cls)
            print(_encode(line))
        print(_encode({"summary": result.totals}))
        return EXIT_OK

    print(f"census: n={args.n} bound={args.bound}"
          + (f" filters={','.join(sorted(query.filters))}" if query.filters else ""))
    print(f"raw orders enumerated: {result.totals['raw_orders']}")
    print(f"conjugacy classes: {result.totals['classes']}")
    for name in FILTERS:
        print(f"  {name}: {result.totals[name]}")
    if query.filters:
        print(f"classes selected: {len(result.classes)}")
    if args.dump:
        for cls in result.classes:
            marks = [name for name in ("gorenstein", "eichler", "hereditary", "bass") if FILTERS[name](cls)]
            print(
                f"  {format_level_compact(cls.canonical)} count={cls.count} "
                + (" ".join(marks) if marks else "-")
            )
    if args.families:
        print("family matches:")
        for cls in result.classes:
            if not cls.report.is_gorenstein:
                continue
            match = _family_match(cls)
            if match is None:
                print(f"  {format_level_compact(cls.canonical)} -> UNMATCHED")
            else:
                params = ", ".join(f"{k}={v}" for k, v in sorted(match["params"].items()))
                print(
                    f"  {format_level_compact(cls.canonical)} -> family {match['index']}"
                    + (f" ({params})" if params else "")
                )
    return EXIT_OK


def _family_match(cls):
    # every family is Gorenstein, so no other class can match
    match = match_family(cls.canonical) if cls.report.is_gorenstein else None
    return None if match is None else {"index": match[0].index, "params": match[1]}


def main(argv=None) -> int:
    # a line is parsed once, by its command's parser, unless it names no command or leaves a word over
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = extra = None
    if argv and argv[0] in parser.commands:
        args, extra = parser.commands[argv[0]].parse_known_args(argv[1:])
    if args is None or extra:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MonordersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the command as it ends other filters
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


# main's parsers, built by its first call (cmd_* patched after it are not reached); the
# top-level one words every refusal that is not a subcommand's own, as for a leftover word
_parser = functools.cache(build_parser)
if __name__ == "__main__":
    entry()
