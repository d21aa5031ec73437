"""Command-line front end.

Four commands: `construct` writes catalog algebras (or one built from a
cubic form) as JSON documents, `verify` runs a single named check with
exit code 0/1 for pass/fail and 2 for invalid input, `report` prints
the combined summary, and `table` sweeps the built-in catalog against
its expected defect and eigenvalue data.  Any command exits 3 when a
check meets an internal inconsistency (a RuntimeError).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .algebra import _jsonable, check_metrized
from .analysis import (
    full_report,
    killing_metrized_check,
    nonradial_hsiang_check,
    pseudocomposition_check,
    quasicomposition_check,
    radial_hsiang_check,
    spectral_summary,
    verify_polar,
)
from .catalog import CatalogNameError, _integer, construct, triple
from .cubic import algebra_from_cubic, cartan_munzner_check, cubic_from_algebra
from .document import DocumentError, dump_algebra, load_algebra
from .polynomials import parse_polynomial
from .scalars import Scalar, scalar_format

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

VERIFY_CHECKS = (
    "metrized",
    "hsiang",
    "nonradial",
    "quasicomposition",
    "polar",
    "killing",
    "eikonal",
    "cartan-munzner",
)

# expected catalog data: name, dim, defect, then for the triple
# (dim, n1, n2, d); a mutant row is one with n2 = 2
QC_ROWS = (
    ("R", 1, 0, 3, 0, 2, 0),
    ("C", 2, 0, 6, 1, 2, 0),
    ("H", 4, 0, 12, 3, 2, 0),
    ("O", 8, 0, 24, 7, 2, 0),
    ("paraC", 2, 0, 6, 1, 2, 0),
    ("paraH(2)", 2, 0, 6, 1, 2, 0),
    ("cross3", 3, 1, 9, 0, 5, 1),
    ("cross7", 7, 1, 21, 4, 5, 1),
    ("color", 6, 2, 18, 1, 8, 2),
)
CARTAN_ROWS = ((0, 2, 1, 0), (1, 5, 2, 0), (2, 8, 3, 0), (4, 14, 5, 0), (8, 26, 9, 0))

FOUR_THIRDS = Scalar(4) / Scalar(3)


def _parse_zero_block(text: str) -> list[int]:
    indices = [_integer(token) for token in text.split(",")]
    if None in indices:
        raise ValueError(f"--zero-block expects comma-separated indices, got {text!r}")
    return indices


def _emit(
    args,
    check: str,
    passed: bool,
    theta: Scalar | None = None,
    delta: int | None = None,
    witness=None,
    lines: tuple[str, ...] = (),
) -> int:
    if args.json:
        payload = {
            "check": check,
            "pass": passed,
            "theta": scalar_format(theta) if theta is not None else None,
            "delta": delta,
            "n1": None,
            "n2": None,
            "d": None,
            "witness": _jsonable(witness),
        }
        print(json.dumps(payload))
    else:
        status = "pass" if passed else "FAIL"
        print(f"[{status}] {check}")
        for line in lines:
            print(line)
        if witness is not None and not passed:
            print(f"witness: {_jsonable(witness)}")
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_construct(args) -> int:
    if args.name == "from-cubic":
        if not args.cubic:
            raise ValueError("from-cubic needs --cubic with the polynomial text")
        u = parse_polynomial(args.cubic)
        alg = algebra_from_cubic(u, name=args.label or "from-cubic")
    else:
        if args.cubic is not None or args.label is not None:
            raise ValueError("--cubic and --label are only valid with 'construct from-cubic'")
        alg = construct(args.name)
    text = dump_algebra(alg, args.output)
    if args.output is None:
        print(text)
    else:
        print(f"wrote {alg.name or 'algebra'} (dim {alg.dim}, field {alg.field_tag}) to {args.output}")
    return EXIT_PASS


def cmd_verify(args) -> int:
    alg = load_algebra(args.document)
    check = args.check

    if check == "metrized":
        report = check_metrized(alg)
        return _emit(args, check, report.passed, witness=report.witness)

    if check == "hsiang":
        report = radial_hsiang_check(alg, seed=args.seed)
        passed = report.radial is not None
        lines = (f"theta = {scalar_format(report.radial)}",) if passed else ()
        return _emit(args, check, passed, theta=report.radial, witness=report.witness, lines=lines)

    if check == "nonradial":
        report = nonradial_hsiang_check(alg, seed=args.seed)
        passed = report.nonradial_b is not None
        lines = []
        if report.radial is not None:
            lines.append(f"radial with theta = {scalar_format(report.radial)}")
        elif passed:
            lines.append("b =")
            lines.extend(
                "  [" + ", ".join(scalar_format(x) for x in row) + "]"
                for row in report.nonradial_b
            )
        return _emit(
            args, check, passed, theta=report.radial, witness=report.witness, lines=tuple(lines)
        )

    if check == "quasicomposition":
        report = quasicomposition_check(alg, seed=args.seed)
        lines = []
        if report.is_quasicomposition:
            lines.append(f"delta = {report.defect}")
        elif report.reason:
            lines.append(report.reason)
        return _emit(
            args,
            check,
            report.is_quasicomposition,
            delta=report.defect,
            witness=report.witness,
            lines=tuple(lines),
        )

    if check == "polar":
        if not args.zero_block:
            raise ValueError("polar needs --zero-block with the indices of the square-zero part")
        report = verify_polar(alg, _parse_zero_block(args.zero_block))
        lines = ()
        if report.passed:
            lines = (
                f"dim A0 = {report.details['dim_zero_block']}, "
                f"dim A1 = {report.details['dim_complement']}",
            )
        return _emit(args, check, report.passed, witness=report.witness, lines=lines)

    if check == "killing":
        report = killing_metrized_check(alg)
        lines = []
        if report.details["ratio"] is not None:
            lines.append(f"kappa = {report.details['ratio']} h")
        if not report.details["invariant"]:
            lines.append("invariance fails")
        if not report.details["nondegenerate"]:
            lines.append("kappa is degenerate")
        return _emit(args, check, report.passed, witness=report.witness, lines=tuple(lines))

    if check == "eikonal":
        result = pseudocomposition_check(alg, seed=args.seed)
        if result is None:
            return _emit(args, check, False, lines=("no cubic scaling identity",))
        theta_prime, eikonal = result
        lines = (f"theta' = {scalar_format(theta_prime)}",)
        if not eikonal:
            lines += ("scaling identity holds but is not eikonal",)
        return _emit(args, check, eikonal, theta=theta_prime, lines=lines)

    if check == "cartan-munzner":
        report = cartan_munzner_check(cubic_from_algebra(alg), Scalar(9))
        return _emit(args, check, report.passed, witness=report.witness)

    raise ValueError(f"unknown check {check!r}")


def _print_report_text(report: dict) -> None:
    print(f"name: {report['name'] or '(unnamed)'}")
    print(f"dim: {report['dim']}  field: {report['field']}")
    flags = [
        key
        for key in ("commutative", "unital", "exact")
        if report[key]
    ]
    print("flags: " + (", ".join(flags) if flags else "none"))
    print(f"metrized: {'pass' if report['metrized']['pass'] else 'FAIL'}")
    killing = report["killing"]
    ratio = killing["details"]["ratio"]
    print(
        "killing: "
        + ("pass" if killing["pass"] else "FAIL")
        + (f" (kappa = {ratio} h)" if ratio is not None else "")
    )
    if "quasicomposition" in report:
        qc = report["quasicomposition"]
        verdict = f"delta = {qc['defect']}" if qc["pass"] else "no"
        print(f"quasicomposition: {verdict}")
    if "hsiang" in report:
        hs = report["hsiang"]
        if hs["radial"] is not None:
            print(f"hsiang: radial, theta = {hs['radial']}")
        elif hs["nonradial"]:
            print("hsiang: nonradial solution")
        else:
            print(f"hsiang: fails, witness {hs['witness']}")
    if report.get("pseudocomposition"):
        pseudo = report["pseudocomposition"]
        tail = ", eikonal" if pseudo["eikonal"] else ""
        print(f"pseudocomposition: theta' = {pseudo['theta_prime']}{tail}")
    if "degeneracy" in report:
        print(f"degenerate: {'yes' if report['degeneracy']['degenerate'] else 'no'}")
    spectral = report.get("spectral")
    if spectral:
        print(
            f"peirce: (n1, n2) = ({spectral['n1']}, {spectral['n2']})"
            + (f", d = {spectral['d']}" if spectral["d"] is not None else "")
        )
        print(
            f"idempotent: |c|^2 = {spectral['idempotent_norm']:.10g}, "
            f"residual = {spectral['residual']:.3g}"
        )
        pairs = ", ".join(f"{value:g} x{count}" for value, count in spectral["multiplicities"])
        print(f"spectrum: {pairs}")
        if "source_defect" in spectral:
            match = "ok" if spectral["defect_matches_d"] else "MISMATCH"
            print(f"source defect {spectral['source_defect']} vs d: {match}")


def cmd_report(args) -> int:
    alg = load_algebra(args.document)
    report = full_report(alg, seed=args.seed, spectral=args.peirce)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_report_text(report)
    return EXIT_PASS


def cmd_table(args) -> int:
    failures = []
    header = (
        f"{'algebra':<10} {'dim':>3} {'delta':>5} | {'triple':>10} "
        f"{'theta':>5} {'killing':>7} {'(n1,n2)':>8} {'d':>2} {'d=delta':>7} {'mutant':>6}"
    )
    print(header)
    print("-" * len(header))
    for name, dim, delta, tdim, n1, n2, d in QC_ROWS:
        alg = construct(name)
        tri = triple(alg)
        row_fail = []
        if alg.dim != dim:
            row_fail.append(f"dim {alg.dim} != {dim}")
        qc = quasicomposition_check(alg, seed=args.seed)
        if not qc.is_quasicomposition or qc.defect != delta:
            row_fail.append(f"delta {qc.defect} != {delta}")
        radial = radial_hsiang_check(tri, seed=args.seed)
        theta = radial.radial
        if theta != FOUR_THIRDS:
            row_fail.append("theta != 4/3")
        killing = killing_metrized_check(tri)
        expected_ratio = scalar_format(Scalar(2 * (dim - delta)))
        if not killing.passed or killing.details["ratio"] != expected_ratio:
            row_fail.append(f"killing ratio {killing.details['ratio']} != {expected_ratio}")
        data = spectral_summary(tri, seed=args.seed)
        got_n1, got_n2, got_d = data["n1"], data["n2"], data["d"]
        if tri.dim != tdim or (got_n1, got_n2) != (n1, n2) or got_d != d:
            row_fail.append(
                f"peirce ({tri.dim}, {got_n1}, {got_n2}, d={got_d}) != ({tdim}, {n1}, {n2}, d={d})"
            )
        if qc.defect != got_d:
            row_fail.append(f"defect {qc.defect} != d {got_d}")
        mutant = "yes" if got_n2 == 2 else "no"
        print(
            f"{name:<10} {alg.dim:>3} {qc.defect!s:>5} | {tri.dim:>10} "
            f"{scalar_format(theta) if theta is not None else '-':>5} "
            f"{killing.details['ratio'] or '-':>7} "
            f"{f'({got_n1},{got_n2})':>8} {got_d!s:>2} "
            f"{'yes' if qc.defect == got_d else 'NO':>7} {mutant:>6}"
        )
        if row_fail:
            failures.append((name, "; ".join(row_fail)))

    print()
    print(f"{'cartan':<10} {'n':>3} {'n1':>3} {'n2':>3}")
    print("-" * 24)
    for d, n, n1, n2 in CARTAN_ROWS:
        alg = construct(f"cartan({d})")
        data = spectral_summary(alg, seed=args.seed)
        got_n1, got_n2 = data["n1"], data["n2"]
        print(f"{f'cartan({d})':<10} {alg.dim:>3} {got_n1:>3} {got_n2:>3}")
        if alg.dim != n or (got_n1, got_n2) != (n1, n2):
            failures.append(
                (f"cartan({d})", f"({alg.dim}, {got_n1}, {got_n2}) != ({n}, {n1}, {n2})")
            )

    if failures:
        for name, why in failures:
            print(f"MISMATCH {name}: {why}", file=sys.stderr)
        return EXIT_FAIL
    print()
    print("all rows match")
    return EXIT_PASS


def _seed(text: str) -> int:
    """A --seed value: a nonnegative integer, ASCII digits without a sign."""
    value = _integer(text)
    if value is not None and "-" not in text:
        return value
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")


def _construct_arguments(con: argparse.ArgumentParser) -> None:
    con.add_argument("name", help="catalog name such as triple(cross7), or 'from-cubic'")
    con.add_argument("-o", "--output", help="output path; stdout when omitted")
    con.add_argument("--cubic", help="cubic polynomial text, e.g. '1*x1^2*x2' (from-cubic only)")
    con.add_argument("--label", help="algebra name stored in the document (from-cubic only)")
    con.set_defaults(func=cmd_construct)


def _verify_arguments(ver: argparse.ArgumentParser) -> None:
    ver.add_argument("check", choices=VERIFY_CHECKS)
    ver.add_argument("document", help="algebra document path")
    ver.add_argument("--zero-block", help="comma-separated square-zero indices (polar check)")
    ver.add_argument(
        "--seed", type=_seed, default=0, help="seed for witness-search and cross-check points"
    )
    ver.add_argument("--json", action="store_true", help="machine-readable verdict")
    ver.set_defaults(func=cmd_verify)


def _report_arguments(rep: argparse.ArgumentParser) -> None:
    rep.add_argument("document", help="algebra document path")
    rep.add_argument("--peirce", action="store_true", help="run the spectral pipeline too")
    rep.add_argument("--seed", type=_seed, default=0)
    rep.add_argument("--json", action="store_true", help="print the full report as JSON")
    rep.set_defaults(func=cmd_report)


def _table_arguments(tab: argparse.ArgumentParser) -> None:
    tab.add_argument("--seed", type=_seed, default=0)
    tab.set_defaults(func=cmd_table)


# name, help line and arguments of each command, in the order of the usage line
COMMANDS = (
    ("construct", "write a catalog algebra as a JSON document", _construct_arguments),
    ("verify", "run one check; exit 0 pass, 1 fail, 2 bad input", _verify_arguments),
    ("report", "print the combined summary for a document", _report_arguments),
    ("table", "sweep the catalog against its expected dimension data", _table_arguments),
)


# the options that take a value, written in full: each takes the next token,
# whatever it starts with (getopt's rule; argparse reads -1*x1^3 as an option)
VALUE_OPTIONS = ("-o", "--output", "--cubic", "--label", "--zero-block", "--seed")


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each value option and its next token joined as option=value."""
    joined, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in VALUE_OPTIONS else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def _invoked_command(argv) -> str | None:
    """The command argparse dispatches argv to: its first token that is
    not an option, when that names a command exactly; else None."""
    token = next((token for token in argv if not token.startswith("-")), None)
    return next((name for name, _, _ in COMMANDS if name == token), None)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The coneforge parser, built anew on each call.

    Given the argv it will parse, only the command that argv invokes gets
    its arguments; the other commands are registered with their help
    lines but bare, and argparse never reads them while parsing that
    argv, so usage, help, errors and the namespace are those of the full
    parser.  Without argv, or when no token names a command exactly,
    every command gets its arguments.
    """
    parser = argparse.ArgumentParser(
        prog="coneforge",
        description="exact checks for metrized algebras and cubic minimal cones",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = None if argv is None else _invoked_command(argv)
    for name, help_line, add_arguments in COMMANDS:
        if invoked is None or invoked == name:
            add_arguments(sub.add_parser(name, help=help_line))
        else:
            sub.add_parser(name, help=help_line, add_help=False)
    return parser


def main(argv=None) -> int:
    argv = _attach_values(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (CatalogNameError, DocumentError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RuntimeError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
