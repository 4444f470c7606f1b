"""List every statement of the package that no test reaches, and fail on
one that is not allowed to be unreached.

Runs the tier-1 suite in this process under a `sys.settrace` line tracer
and prints each line of `src/polytower` that starts a statement's code but
was never executed, with its text, then a count per module.  Child
processes the tests start are not traced, so a line reached only from one
of them is listed too.  Extra arguments go to pytest.

    PYTHONPATH=src python tests/reach.py
    PYTHONPATH=src python tests/reach.py tests/test_carriers.py

It exits 1 when pytest fails, when an unreached statement is not in
`ALLOWED`, or when an entry of `ALLOWED` matches no unreached statement;
otherwise 0.  A run on a subset of the tests therefore exits 1 too.

Nothing of `polytower` may be imported before the tracer is installed, so
that module-level statements are seen too.
"""
from __future__ import annotations

import dis
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polytower"

_CHILD_ONLY = "the out-of-memory exit: its test runs the command in a child process, which the tracer does not follow"

# the statements no in-process test reaches, keyed by module file and
# statement text (not line number), each with the reason it stays
ALLOWED = {
    ("cli.py", "os.write(2, _OUT_OF_MEMORY)"): _CHILD_ONLY,
    ("cli.py", "os._exit(EXIT_INTERNAL)"): _CHILD_ONLY,
    ("cli.py", "sys.exit(main())"): "`__main__`: runs only when the module is the script",
    ("records.py", "own = cls.__annotations__"): "runs only on Python 3.14+, where class annotations are evaluated lazily",
}


def executable_lines(path: Path) -> set:
    """The lines on which some instruction of the module's code starts."""
    lines: set = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def run(pytest_args) -> dict:
    """Run pytest under the tracer; {file name: reached lines}."""
    prefix = str(PACKAGE) + os.sep
    reached: dict = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_code.co_firstlineno)
        return local

    import pytest

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, reached


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    status, reached = run(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    total = 0
    counts = []
    matched = set()
    unexpected = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - reached.get(str(path), set()))
        if not missed:
            continue
        text = path.read_text().splitlines()
        rel = path.relative_to(ROOT)
        for line in missed:
            key = (path.name, text[line - 1].strip())
            if key in ALLOWED:
                matched.add(key)
            else:
                unexpected += 1
            print("%s:%d: %s%s" % (rel, line, key[1], "  (allowed)" if key in ALLOWED else ""))
        counts.append((rel, len(missed)))
        total += len(missed)
    for rel, count in counts:
        print("%5d  %s" % (count, rel))
    print("%5d  unreached lines, %d of them not allowed" % (total, unexpected))
    stale = sorted(set(ALLOWED) - matched)
    for name, statement in stale:
        print("allowed but reached or gone: %s: %s" % (name, statement))
    if status != 0:
        print("pytest exited %s; the listing above is of that run" % status)
    return 1 if status != 0 or unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
