import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session")
def golden_runs(tmp_path_factory):
    """The runs of the golden table's lines, shared by every test."""
    from test_golden import Runs

    return Runs(tmp_path_factory.mktemp("golden"))
