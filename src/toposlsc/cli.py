"""Command-line surface.

Subcommands: `lsc` (classifier of a category file), `group` (subgroup lattice
and normalization arrows), `words` (regex / DFA workbench), `verify` (the
invariant suites).  Exit codes: 0 all good, 1 a verification check failed,
2 malformed input, 3 budget exceeded, 4 internal error.
"""

import argparse
import os
import sys

from .errors import BudgetExceeded, InputFormatError, ToposError
from .fincat import DEFAULT_BUDGET
from . import io, reports
from .lsc import build_lsc
from .verify import SUITES, run_suite
from .words import WORDS_SCALE, regex_to_min_dfa

BUDGET_ENV = "TOPOS_LSC_BUDGET"


def _build_parser():
    # the global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help=f"enumeration size cap (default: ${BUDGET_ENV} "
                             f"or {DEFAULT_BUDGET}); words caps each "
                             f"exploration at {WORDS_SCALE} times it, weighting "
                             f"monoid elements by max(states, 256)/256")
    common.add_argument("--format", choices=("human", "machine"),
                        default=argparse.SUPPRESS,
                        help="report rendering (default: human)")
    parser = argparse.ArgumentParser(
        prog="topos-lsc",
        parents=[common],
        description=("Local state classifiers of finite presheaf topoi, "
                     "normalization operators, and the word-congruence workbench."))
    sub = parser.add_subparsers(dest="command")

    p_lsc = sub.add_parser("lsc", parents=[common],
                           help="classifier of a finite site")
    p_lsc.add_argument("category_file")

    p_group = sub.add_parser("group", parents=[common],
                             help="subgroup lattice and normalization arrows")
    p_group.add_argument("group_file")

    p_words = sub.add_parser("words", parents=[common],
                             help="regular-language workbench")
    src = p_words.add_mutually_exclusive_group(required=True)
    src.add_argument("--regex", help="regular expression source")
    src.add_argument("--dfa", help="DFA file")
    p_words.add_argument("--alphabet", help="alphabet symbols, e.g. 'ab'")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the invariant suites")
    p_verify.add_argument("--suite", default="all",
                          choices=("all", *SUITES))
    p_verify.add_argument("--fixtures", default=None,
                          help="directory of extra fixture files")
    return parser


def _budget(args):
    """The enumeration cap: --budget, else $TOPOS_LSC_BUDGET, else the default.
    A cap below 1 can never be met, so it is malformed input."""
    given = getattr(args, "budget", None)
    if given is not None:
        source, budget = "--budget", given
    else:
        env = os.environ.get(BUDGET_ENV)
        if env is None:
            return DEFAULT_BUDGET
        source = BUDGET_ENV
        try:
            budget = int(env)
        except ValueError:
            raise InputFormatError(f"{BUDGET_ENV}={env!r} is not an integer") from None
    if budget < 1:
        raise InputFormatError(f"budget {budget} (from {source}) is below 1")
    return budget


def _report(args):
    """The report of the parsed command, verdicts included."""
    if args.command == "verify":
        cert = run_suite(args.suite, _budget(args), args.fixtures)
        return reports.make_report(f"verify-{args.suite}", {"checks": len(cert.checks)},
                                   [cert])
    if args.command == "words":
        cap = WORDS_SCALE * _budget(args)
        if args.regex is not None:
            if args.alphabet is None:
                raise InputFormatError("--regex requires --alphabet")
            d = regex_to_min_dfa(args.regex, args.alphabet, cap)
            return reports.words_report(d, source={"regex": args.regex,
                                                   "alphabet": args.alphabet}, cap=cap)
        d = io.load_dfa(args.dfa)
        if args.alphabet is not None and tuple(args.alphabet) != d.alphabet:
            raise InputFormatError(
                f"--alphabet {args.alphabet!r} does not match the DFA file's "
                f"alphabet {''.join(d.alphabet)!r}")
        return reports.words_report(d, source={"dfa": args.dfa}, cap=cap)
    if args.command == "group":
        G = io.load_group(args.group_file)
        return reports.group_report(G, build_lsc(G.site(), _budget(args)))
    cat = io.load_category(args.category_file)
    return reports.lsc_report(build_lsc(cat, _budget(args)))


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        report = _report(args)
        sys.stdout.write(reports.render(report, getattr(args, "format", "human")))
        return 0 if all(v["pass"] for v in report["verdicts"]) else 1
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InputFormatError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        for detail in exc.details:
            print(f"  - {detail}", file=sys.stderr)
        return 2
    except ToposError as exc:
        print(f"invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect in the tool; exit 1 stays a failed verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
