"""Command-line interface.

Subcommands: ``validate`` (check a lattice file and report its shape),
``classify`` (place a fuzzy set on the interval/convex/sublattice ladder),
``op`` (meet or join of two fuzzy intervals, result written as a fuzzy-set
document on stdout), ``laws`` (run verification suites), ``enumerate``
(dump interval / fuzzy-interval enumerations).

Exit codes: 0 success, 1 domain failure (invalid lattice, non-interval
operands, failed asserted law), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .errors import (CycleError, FormatError, GradeSetInvalid, InvalidGrade,
                     LatticeMismatch, NotAFuzzyInterval, NotALattice, RouteDisagreement,
                     SizeLimit, UnknownElement)
from .formats import (dumps_canonical, fuzzy_set_to_json, load_fuzzy_set,
                      load_lattice, memberships_to_json)
from .fuzzyintervals import FuzzyInterval, classify
from .fuzzysets import format_grade
from .lattice import format_element, is_distributive, standard_lattice
from .suites import DEFAULT_BUDGET, DEFAULT_SEED, SUITES

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


@functools.cache  # parse_args keeps no state in the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzint",
        description="Fuzzy intervals over finite lattices: validate, classify, "
                    "operate, and verify laws.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its subparser, read by _parse

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")

    p = sub.add_parser("validate", help="check a lattice document")
    p.add_argument("lattice", help="lattice JSON file")
    add_format(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="classify a fuzzy set over a lattice")
    p.add_argument("lattice", help="lattice JSON file")
    p.add_argument("fuzzyset", help="fuzzy-set JSON file")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("op", help="meet or join of two fuzzy intervals")
    p.add_argument("operation", choices=("meet", "join"))
    p.add_argument("lattice", help="lattice JSON file")
    p.add_argument("left", help="fuzzy-set JSON file")
    p.add_argument("right", help="fuzzy-set JSON file")
    p.add_argument("--cuts", action="store_true",
                   help="also print a per-threshold cut table on stderr")
    add_format(p)
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("laws", help="run law-verification suites")
    p.add_argument("lattice", nargs="?", help="lattice JSON file")
    p.add_argument("--fixture", help="built-in lattice name (chain3, boolean2, "
                                     "m3, n5, product(chain2,chain3), ...)")
    p.add_argument("--grades", default="0,1/2,1",
                   help="comma-separated grade chain (default: 0,1/2,1)")
    p.add_argument("--suite", default="all", help="one of: " + ", ".join(SUITES + ("all",)))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max instances per exhaustive loop before sampling")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for sampled checking")
    add_format(p)
    p.set_defaults(func=_cmd_laws)

    p = sub.add_parser("enumerate", help="dump interval or fuzzy-interval enumerations")
    p.add_argument("lattice", nargs="?", help="lattice JSON file")
    p.add_argument("--fixture", help="built-in lattice name")
    p.add_argument("--kind", choices=("intervals", "fuzzy-intervals"),
                   default="intervals")
    p.add_argument("--grades", default="0,1/2,1",
                   help="grade chain for fuzzy intervals (default: 0,1/2,1)")
    add_format(p)
    p.set_defaults(func=_cmd_enumerate)
    return parser


def _lines(payload: dict, indent: str = "") -> list[str]:
    """``payload`` as ``key: value`` text lines: a bool as ``true`` or
    ``false``, a list as ``(a, b, c)``."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, list):
            value = "(" + ", ".join(value) + ")"
        lines.append(f"{indent}{key}: {value}")
    return lines


def _emit(args, payload: dict, text_lines=None) -> None:
    """``payload`` as JSON, or as ``text_lines``, by default the payload's own."""
    if args.format == "json":
        sys.stdout.write(dumps_canonical(payload))
    else:
        print("\n".join(_lines(payload) if text_lines is None else text_lines))


def _cmd_validate(args) -> int:
    lattice = load_lattice(args.lattice)
    distributive, witness = is_distributive(lattice)
    payload = {"lattice": lattice.name, "elements": len(lattice.elements),
               "bottom": format_element(lattice.bottom),
               "top": format_element(lattice.top),
               "distributive": distributive}
    if witness is not None:
        payload["witness"] = [format_element(e) for e in witness]
    _emit(args, payload)
    return EXIT_OK


def _classification(fuzzy) -> dict:
    """The payload of ``classify``: the label and, unless ``fuzzy`` is a
    fuzzy interval, the class it fails and the witness."""
    result = classify(fuzzy)
    payload = {"classification": result.label}
    if result.failed is not None:
        payload["failed"] = result.failed
        payload["witness"] = [format_grade(part) if isinstance(part, Fraction)
                              else format_element(part) for part in result.witness]
    return payload


def _cmd_classify(args) -> int:
    lattice = load_lattice(args.lattice)
    _emit(args, _classification(load_fuzzy_set(args.fuzzyset, lattice)))
    return EXIT_OK


def _cmd_op(args) -> int:
    lattice = load_lattice(args.lattice)
    operands = []
    for path in (args.left, args.right):
        fuzzy = load_fuzzy_set(path, lattice)
        try:
            operands.append(FuzzyInterval(fuzzy))
        except NotAFuzzyInterval:
            explained = _lines(_classification(fuzzy), "  ")  # only to explain the rejection
            print(f"error: {path} is not a fuzzy interval", *explained, sep="\n",
                  file=sys.stderr)
            return EXIT_DOMAIN
    left, right = operands
    combined = left.meet(right) if args.operation == "meet" else left.join(right)
    sys.stdout.write(dumps_canonical(fuzzy_set_to_json(combined.fuzzy)))
    if args.cuts:
        print("cuts:", file=sys.stderr)
        for p in combined.thresholds():
            print(f"  {format_grade(p)}: {combined.cut_interval(p).render(ascii_only=True)}",
                  file=sys.stderr)
    return EXIT_OK


def _laws_lattice(args):
    if (args.lattice is None) == (args.fixture is None):
        raise FormatError("give exactly one of a lattice file or --fixture")
    if args.fixture is not None:
        return standard_lattice(args.fixture)
    return load_lattice(args.lattice)


def _parse_grades(text: str):
    from .laws import validate_grades

    return validate_grades([part.strip() for part in text.split(",") if part.strip()])


def _cmd_laws(args) -> int:
    from .laws import run_suite

    lattice = _laws_lattice(args)
    grades = _parse_grades(args.grades)
    if args.budget < 1:
        raise FormatError("--budget must be positive")
    reports = run_suite(args.suite, lattice, grades, budget=args.budget, seed=args.seed)
    passed = all(r.passed for r in reports)
    if args.format == "json":
        payload = {"passed": passed, "reports": [r.as_json() for r in reports]}
        sys.stdout.write(dumps_canonical(payload))
    else:
        print("\n\n".join(r.to_text() for r in reports))
    return EXIT_OK if passed else EXIT_DOMAIN


def _cmd_enumerate(args) -> int:
    from .laws import enumerate_fuzzy_intervals, enumerate_intervals

    lattice = _laws_lattice(args)
    if args.kind == "intervals":
        intervals = enumerate_intervals(lattice)
        payload = {"lattice": lattice.name, "count": len(intervals),
                   "intervals": [None if iv.is_empty else
                                 [format_element(iv.lo), format_element(iv.hi)]
                                 for iv in intervals]}
        lines = [iv.render() for iv in intervals]
    else:
        grades = _parse_grades(args.grades)
        fis = enumerate_fuzzy_intervals(lattice, grades)
        payload = {"lattice": lattice.name,
                   "grades": [format_grade(g) for g in grades],
                   "count": len(fis),
                   "fuzzy_intervals": [memberships_to_json(fi) for fi in fis]}
        lines = [repr(fi.fuzzy) for fi in fis]
    lines.append(f"count: {payload['count']}")
    _emit(args, payload, lines)
    return EXIT_OK


def _parse(parser: argparse.ArgumentParser, argv: list):
    """``parser.parse_args(argv)``, with argv that starts with a command name
    handed to that command's subparser alone.

    The full parser hands the rest of such an argv to the same subparser
    unchanged, and any error or help it prints comes from there; what the
    full parser adds is the refusal of arguments left over, so an argv that
    leaves some is parsed again in full.
    """
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CycleError, NotALattice, NotAFuzzyInterval, RouteDisagreement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (FormatError, GradeSetInvalid, InvalidGrade, LatticeMismatch,
            SizeLimit, UnknownElement, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
