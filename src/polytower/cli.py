"""Command-line front end.

Exit codes: 0 the check holds (or the command produced its output), 1 a
check was refuted, 2 a check was inconclusive, 3 malformed input or a
command-line usage error, 4 an internal error (a fault of the program, never
a verdict); running out of memory is an internal error too.  Budgets come
from flags, the POLYTOWER_BUDGETS environment variable
("pi1=N,filler=N,nerve=N"), or the defaults, in that order of precedence.
A command accepts the flags of the budgets it reads, and no others.

The one command table, `_COMMANDS`, names each command's flags, budgets and
handler module (`cli_gen`, `cli_towers`, `cli_lift`, `cli_complexes`); a
process imports only the module of the command it runs, and its handler
returns the report and status that `main` emits and exits on.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

from . import formats
from .verdicts import DEFAULT_BUDGETS, Budgets

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {"holds": EXIT_HOLDS, "fails": EXIT_FAILS, "inconclusive": EXIT_INCONCLUSIVE}

# budget name -> its Budgets field: a POLYTOWER_BUDGETS entry name=N and the
# flag --budget-name of the commands that read it
_BUDGETS = {"pi1": "pi1_steps", "filler": "filler_steps", "nerve": "nerve_subsets"}

# written when memory runs out, where formatting a message could fail too
_OUT_OF_MEMORY = b"internal error: out of memory\n"


def _budgets_from(args) -> Budgets:
    overrides = {}
    for part in os.environ.get("POLYTOWER_BUDGETS", "").split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise formats.InputFormatError("POLYTOWER_BUDGETS entries look like name=N")
        name, value = part.split("=", 1)
        key = _BUDGETS.get(name.strip())
        if key is None:
            raise formats.InputFormatError("unknown budget %r in POLYTOWER_BUDGETS" % name)
        overrides[key] = int(value)
    flags = {key: getattr(args, "budget_" + name, None) for name, key in _BUDGETS.items()}
    return DEFAULT_BUDGETS.with_overrides(**overrides).with_overrides(**flags)


def _emit(report, args) -> None:
    text = formats.dumps_canonical(report)
    if args.format == "human":
        text = formats.render_human(json.loads(text)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: it exits 3, not argparse's 2, which
    is the code of an inconclusive check.  Subcommand parsers share the
    class, and `--help` still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _arg(*flags, **kwargs):
    return flags, kwargs


_INPUT = _arg("input")

# name -> (help, the module of its handler cmd_<name>, whether --n is
# required, the budgets it reads, the command's own arguments); a budget b
# is set with --budget-b
_COMMANDS = {
    "validate": ("validate a complex file and report its shape", "cli_complexes", False, (), [_INPUT]),
    "subdivide": ("barycentric subdivision of a complex file", "cli_complexes", False, (), [_INPUT]),
    "stars": (
        "open and barycentric star of a vertex",
        "cli_complexes",
        False,
        (),
        [_INPUT, _arg("--vertex", required=True)],
    ),
    "nerve": ("nerve of a cover file", "cli_complexes", False, ("nerve",), [_INPUT]),
    "homology": (
        "integral homology of a complex file",
        "cli_complexes",
        False,
        (),
        [_INPUT, _arg("--degree", type=int), _arg("--reduced", action="store_true")],
    ),
    "pi1": ("fundamental group triviality verdict", "cli_complexes", False, ("pi1",), [_INPUT]),
    "check-map": ("quasi-simpliciality, surjectivity, regularity", "cli_towers", True, ("pi1",), [_INPUT]),
    "verify-tower": ("full certificate for a tower file", "cli_towers", True, ("pi1", "nerve"), [_INPUT]),
    "restrict": (
        "restrict a tower to a subcomplex of one level",
        "cli_towers",
        False,
        (),
        [
            _INPUT,
            _arg("--level", type=int, required=True),
            _arg("--complex", required=True, help="file with the subcomplex's maximal simplices"),
        ],
    ),
    "mesh": ("mesh of a cover file", "cli_complexes", False, (), [_INPUT, _arg("--scale")]),
    "lift": (
        "stagewise lift of a PL map through a tower",
        "cli_lift",
        True,
        ("pi1", "filler", "nerve"),
        [_arg("input", help="tower file"), _arg("--spec", required=True, help="lift specification file")],
    ),
    "gen": (
        "deterministic example inputs",
        "cli_gen",
        False,
        (),
        [
            _arg(
                "kind",
                choices=(
                    "simplex",
                    "circle",
                    "sphere",
                    "rp2",
                    "cylinder",
                    "cylinder-tower",
                    "subdivision-tower",
                    "random-tower",
                ),
            ),
            _arg("--dim", type=int),
            _arg("--base"),
            _arg("--levels", type=int, default=3),
            _arg("--seed", type=int, default=0),
            _arg("--scale-base"),
        ],
    ),
}


def build_parser() -> argparse.ArgumentParser:
    return _parser(_COMMANDS)


def _parser(names) -> argparse.ArgumentParser:
    """The parser with the subparsers of the named commands only; its usage
    line lists every command whichever are built."""
    parser = _Parser(
        prog="polytower",
        description="exact checks and certificates for towers of finite polyhedra",
    )
    every = None if len(names) == len(_COMMANDS) else "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        help_, _, needs_n, budgets, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--format", choices=("json", "human"), default="json")
        p.add_argument("--output", "-o", default=None)
        for budget in budgets:
            p.add_argument("--budget-" + budget, type=int, default=None)
        if needs_n:
            p.add_argument("--n", type=int, required=True)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a process runs one command, so only its subparser is built
    parser = _parser(argv[:1]) if argv and argv[0] in _COMMANDS else build_parser()
    args = parser.parse_args(argv)
    try:
        _, module, _, budgets, _ = _COMMANDS[args.command]
        if budgets:
            args.budgets = _budgets_from(args)
        handler = getattr(import_module("." + module, __package__), "cmd_" + args.command.replace("-", "_"))
        report, status = handler(args)
        _emit(report, args)
        return _STATUS_EXIT[status]
    except MemoryError:
        # the report below allocates; when that fails too the interpreter
        # exits 1, the refutation code
        os.write(2, _OUT_OF_MEMORY)
        os._exit(EXIT_INTERNAL)
    except (ValueError, KeyError) as exc:  # formats.InputFormatError is a ValueError
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except Exception as exc:
        import traceback

        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
