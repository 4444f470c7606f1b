import importlib
import json
import os
import runpy
import subprocess
import sys

import polytower
from polytower import formats
from polytower.generators import cylinder_tower

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


def test_trace_reaches_call_time_imports(tmp_path):
    # commands and `maps` import some layers where they run them; the tracer
    # wraps each name in its home module, so those calls are still counted.
    # The cylinder's bond is not regular at n = 2, so its induced maps are
    # computed
    tower = tmp_path / "tower.json"
    tower.write_text(formats.dumps_canonical(formats.tower_to_obj(cylinder_tower())))
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(TRACE_CLI), "..", "src"))
    proc = subprocess.run(
        [sys.executable, TRACE_CLI, str(trace), "verify-tower", str(tower), "--n", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1, proc.stderr
    calls = {name: span[0] for name, span in json.loads(trace.read_text())["spans"].items()}
    assert calls["towers.verify_tower"] == 1 and calls["stars.cover_B"] == 1
    assert calls["maps.induced_homology_map"] > 0 and calls["connectivity.homology_coordinates"] > 0
