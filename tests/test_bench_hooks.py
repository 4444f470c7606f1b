import importlib
import os
import runpy

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
