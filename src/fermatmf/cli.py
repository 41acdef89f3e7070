"""Batch command line: verify catalogs, enumerate, query equivalence, sample.

Every run prints one report, as text or as JSON with a versioned ``schema``
field.  Reports are deterministic for fixed arguments and seed: checks are
emitted in a canonical order and JSON keys are sorted.  Exit status is 0
when no check failed (an inconclusive answer does not fail the run), 1 when
a verification failed or the reader closed the output pipe early, and 2 for
usage errors.  ``main`` is the one place that turns an error into exit 2:
every error the package raises on bad input is a ``FermatmfError`` (a
malformed id, matrix or value, a ``--field`` without the cube roots of
unity a command needs), and ``main`` prints it as ``error: <message>``.
Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .field import FermatmfError, omega_field, rationals, sextic_field
from .poly import MAX_DIGITS, ParseError, parse_scalar
from .matrix import determinant, format_one_line, parse_matrix, pfaffian
from .families import CurvePoint, FamilyError, FamilyId, GammaBlock, build_six_gen
from .equiv import enumerate_classes, linear_reduction, scalar_equivalence
from .moduli6 import (
    gamma2_solve,
    group_action,
    linear_system_nullity,
    sample_moduli_point,
)


class _UsageError(FermatmfError):
    """Bad arguments: reported on stderr with exit status 2."""


_FIELDS = {"omega": omega_field, "sextic": sextic_field, "rationals": rationals}
_CATALOG_ORDER = ("rank2_3gen", "nonorientable_4gen", "nonorientable_5gen")


class Report:
    """An ordered list of check records with summary counts.

    A record always carries subject, check and outcome; handlers attach
    whatever extra values the query produced (counts, witnesses, gamma
    entries) as strings or lists of strings.
    """

    def __init__(self, command):
        self.command = command
        self.checks = []

    def add(self, subject, check, outcome, **extra):
        record = {"subject": subject, "check": check, "outcome": outcome}
        for key, value in extra.items():
            if value is not None:
                record[key] = value
        self.checks.append(record)

    def _count(self, outcome):
        return sum(1 for c in self.checks if c["outcome"] == outcome)

    def exit_status(self):
        return 1 if self._count("fail") else 0

    def render(self, fmt):
        if fmt == "json":
            payload = {
                "schema": 1,
                "command": self.command,
                "checks": self.checks,
                "summary": {
                    "total": len(self.checks),
                    "failed": self._count("fail"),
                    "inconclusive": self._count("inconclusive"),
                },
                "exit": self.exit_status(),
            }
            return json.dumps(payload, indent=2, sort_keys=True)
        lines = ["command: %s" % self.command]
        for record in self.checks:
            lines.append("%s  %s  %s" % (record["outcome"], record["check"],
                                         record["subject"]))
            for key in sorted(record):
                if key in ("outcome", "check", "subject"):
                    continue
                value = record[key]
                if isinstance(value, (list, tuple)):
                    lines.append("  %s:" % key)
                    lines.extend("    %s" % item for item in value)
                else:
                    lines.append("  %s: %s" % (key, value))
        lines.append("summary: %d checks, %d failed, %d inconclusive"
                     % (len(self.checks), self._count("fail"),
                        self._count("inconclusive")))
        return "\n".join(lines)


# -- argument helpers ------------------------------------------------------------

def _parse_values(field, text, count, what):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise _UsageError("%s needs %d comma-separated values" % (what, count))
    try:
        return tuple(parse_scalar(field, p) for p in parts)
    except ParseError as err:
        raise _UsageError("%s: %s" % (what, err))


def _ascii_int(text, signed):
    """The int that text spells in at most MAX_DIGITS ASCII digits, after
    one '-' if signed, or None: int() also reads '1_0', ' 1', '+1' and
    non-ASCII digits such as '١'."""
    digits = text[1:] if signed and text.startswith("-") else text
    if (digits.isascii() and digits.isdigit()
            and len(digits) <= MAX_DIGITS):
        return int(text)
    return None


def _seed(text):
    seed = _ascii_int(text, signed=True)
    if seed is None:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    return seed


def _budget(text):
    budget = _ascii_int(text, signed=False)
    if budget is None:
        raise argparse.ArgumentTypeError("expected an integer >= 0, got %r"
                                         % text)
    return budget


def _parse_point(field, text):
    if text is None:
        raise _UsageError("--lambda A,B is required")
    return CurvePoint.affine(field, *_parse_values(field, text, 2, "--lambda"))


def _read_matrix(field, source):
    """The matrix in a file, or on stdin for "-": read as bytes and decoded
    as UTF-8 whatever the locale, an undecodable byte kept as a surrogate
    that the parser then reports."""
    if source == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(source, "rb") as handle:
                data = handle.read()
        except OSError as err:
            raise _UsageError(str(err))
    return parse_matrix(field, data.decode("utf-8", "surrogateescape"))


# -- subcommand handlers ---------------------------------------------------------

def _cmd_verify(args, field):
    report = Report("verify")
    if args.family:
        ids = [FamilyId.parse(field, args.family)]
    elif args.all:
        ids = []
        for catalog in _CATALOG_ORDER:
            ids.extend(enumerate_classes(catalog, field).representatives)
    else:
        raise _UsageError("verify needs --all or --family ID")
    for fid in ids:
        try:
            fid.build()
        except FamilyError as err:
            report.add(str(fid), "factorization", "fail", detail=str(err))
        else:
            report.add(str(fid), "factorization", "pass")
    return report


def _cmd_enumerate(args, field):
    report = Report("enumerate")
    classes = enumerate_classes(args.catalog, field)
    report.add(args.catalog, "enumerate", "pass", count=classes.count,
               representatives=[str(fid) for fid in classes.representatives])
    return report


def _cmd_equiv(args, field):
    report = Report("equiv")
    left = FamilyId.parse(field, args.left)
    right = FamilyId.parse(field, args.right)
    lmat = left.build().phi
    rmat = right.build().phi
    if args.reduced:
        lmat = linear_reduction(lmat)
        rmat = linear_reduction(rmat)
    verdict = scalar_equivalence(lmat, rmat)
    witness = None
    if verdict.witness is not None:
        witness = [format_one_line(W) for W in verdict.witness]
    report.add("%s vs %s" % (left, right), "scalar_equivalence",
               verdict.outcome, method=verdict.method, witness=witness,
               reduced=bool(args.reduced))
    return report


def _cmd_moduli_solve(args, field):
    report = Report("moduli solve")
    lam = _parse_point(field, args.lam)
    free = _parse_values(field, args.free, 3, "--free")
    gamma = gamma2_solve(lam, free)
    rank, nullity = linear_system_nullity(lam)
    report.add(str(lam), "gamma2_solve", "pass",
               gamma=[str(v) for v in gamma.values],
               rank=rank, nullity=nullity)
    return report


def _cmd_moduli_sample(args, field):
    report = Report("moduli sample")
    lam = _parse_point(field, args.lam)
    point = sample_moduli_point(lam, args.seed, args.budget)
    if point is None:
        report.add(str(lam), "sample", "inconclusive", seed=args.seed,
                   detail="no certified point within budget %d" % args.budget)
    else:
        report.add(str(lam), "sample", "pass", seed=args.seed,
                   gamma=[str(v) for v in point.gamma.values],
                   certified=point.certified)
    return report


def _cmd_moduli_act(args, field):
    report = Report("moduli act")
    lam = _parse_point(field, args.lam)
    if args.matrix is None:
        mat = build_six_gen(lam, GammaBlock.zero(field))
    else:
        mat = _read_matrix(field, args.matrix)
    k = None
    if args.k is not None:
        try:
            k = parse_scalar(field, args.k)
        except ParseError as err:
            raise _UsageError("--k: %s" % err)
    coeffs = None
    if args.coeffs is not None:
        coeffs = _parse_values(field, args.coeffs, 4, "--coeffs")
    moved = group_action(args.kind, lam, mat, k=k, coeffs=coeffs)
    report.add(str(lam), "action_%s" % args.kind, "pass",
               matrix=format_one_line(moved))
    return report


def _cmd_evaluate(args, field):
    report = Report(args.command)
    value = args.evaluate(_read_matrix(field, args.matrix))
    report.add("input matrix", args.command, "pass", value=str(value))
    return report


# -- parser ----------------------------------------------------------------------

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--field", choices=sorted(_FIELDS), default="omega")

    parser = argparse.ArgumentParser(
        prog="fermatmf",
        description="exact matrix-factorization toolkit for the Fermat cubic")
    parser.set_defaults(handler=None, format="text")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", parents=[common],
                       help="re-check factorization identities")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--all", action="store_true")
    target.add_argument("--family", metavar="ID")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list canonical class representatives")
    p.add_argument("--catalog", required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("equiv", parents=[common],
                       help="decide constant equivalence of two families")
    p.add_argument("--left", required=True, metavar="ID")
    p.add_argument("--right", required=True, metavar="ID")
    p.add_argument("--reduced", action="store_true",
                   help="compare degree-1 reductions instead")
    p.set_defaults(handler=_cmd_equiv)

    moduli = sub.add_parser("moduli", help="the 6x6 pencil layer")
    msub = moduli.add_subparsers(dest="action")

    p = msub.add_parser("solve", parents=[common],
                        help="solve the linear system in the Gamma2 entries")
    p.add_argument("--lambda", dest="lam", metavar="A,B")
    p.add_argument("--free", default="1,0,0", metavar="V,V,V")
    p.set_defaults(handler=_cmd_moduli_solve)

    p = msub.add_parser("sample", parents=[common],
                        help="search for a certified moduli point")
    p.add_argument("--lambda", dest="lam", metavar="A,B")
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--budget", type=_budget, default=100)
    p.set_defaults(handler=_cmd_moduli_sample)

    p = msub.add_parser("act", parents=[common],
                        help="apply a group action to a pencil")
    p.add_argument("--lambda", dest="lam", metavar="A,B")
    p.add_argument("--kind", required=True, choices=("Uk", "S2", "H"))
    p.add_argument("--k", metavar="VALUE")
    p.add_argument("--coeffs", metavar="K1,K2,K3,K4")
    p.add_argument("--matrix", metavar="PATH",
                   help="pencil to act on ('-' for stdin); "
                        "defaults to the zero-Gamma pencil")
    p.set_defaults(handler=_cmd_moduli_act)

    for name, evaluate in (("pfaffian", pfaffian), ("det", determinant)):
        p = sub.add_parser(name, parents=[common],
                           help="evaluate on a matrix read from file or stdin")
        p.add_argument("--matrix", default="-", metavar="PATH")
        p.set_defaults(handler=_cmd_evaluate, evaluate=evaluate)

    return parser


# options whose value may be a negative field literal such as -w,0
_SIGNED_OPTIONS = ("--lambda", "--free", "--coeffs", "--k")


def _join_signed_values(argv):
    """Write ``--lambda -w,0`` as ``--lambda=-w,0``, and so for every option
    in _SIGNED_OPTIONS, so that argparse does not read a value that starts
    with a single ``-`` as an option.  A following ``--option`` is left
    alone, so ``--lambda`` without a value stays a usage error."""
    joined = []
    for arg in argv:
        if joined and joined[-1] in _SIGNED_OPTIONS \
                and arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_signed_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.handler is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        report = args.handler(args, _FIELDS[args.field]())
    except FermatmfError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    try:
        print(report.render(args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; point stdout at devnull so the
        # flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return report.exit_status()


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
