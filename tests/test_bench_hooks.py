import importlib
import json
import os
import runpy
import subprocess
import sys

import polytower

TRACE_CLI = os.path.join(os.path.dirname(__file__), "..", "bench", "trace_cli.py")


def test_trace_boundary_resolves():
    # the benchmark's tracer wraps these functions by name; a missing one
    # would crash traced runs while every other test still passes
    boundary = runpy.run_path(TRACE_CLI, run_name="trace_cli")["BOUNDARY"]
    assert boundary
    for module_name, names in boundary.items():
        module = importlib.import_module("polytower." + module_name)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (module_name, name)


def test_public_names_resolve():
    for name in polytower.__all__:
        assert hasattr(polytower, name), name


def _traced(golden_runs, tmp_path, line) -> tuple:
    """Run a line of the golden table through the tracer as a script, check
    that it exits and prints as the plain line does, and return (that exit
    code, the calls counted per span)."""
    from test_golden import split

    code, _, plain = golden_runs.run(line)
    argv = [golden_runs.path(w[1:]) if w.startswith("@") else w for w in split(line)[1]]
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(TRACE_CLI), "..", "src"))
    proc = subprocess.run([sys.executable, TRACE_CLI, str(trace), *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == plain.read_text(encoding="utf-8")
    calls = {name: span[0] for name, span in json.loads(trace.read_text())["spans"].items()}
    return code, calls


def test_trace_reaches_call_time_imports(golden_runs, tmp_path):
    # commands and `maps` import some layers where they run them; the tracer
    # wraps each name in its home module, or where `BOUNDARY` still looks it
    # up, so those calls are counted and the traced run prints what the
    # plain one prints.  The cylinder's bond is not regular at n = 2, so its
    # pieces reach π1 and its induced maps are computed; it is refuted
    code, calls = _traced(golden_runs, tmp_path, "verify-tower @cylinder --n 2")
    assert code == 1
    assert calls["towers.verify_tower"] == 1 and calls["stars.cover_B"] == 1
    assert calls["maps.induced_homology_map"] > 0 and calls["connectivity.homology_coordinates"] > 0
    assert calls["connectivity.pi1_verdict"] > 0 and calls["connectivity.tietze_simplify"] > 0


def test_trace_counts_the_lift(golden_runs, tmp_path):
    # the closed-cover loop lift, counted where `BOUNDARY` looks the lift
    # code up, in `towers`
    code, calls = _traced(golden_runs, tmp_path, "lift @qfo3 --spec @loop3 --n 2")
    assert code == 0
    assert calls["towers.single_lift"] > 0 and calls["towers.tower_lift"] > 0
