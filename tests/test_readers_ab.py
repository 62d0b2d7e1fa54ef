"""`tools/readers_ab.py` times the readers no benchmark op times on two
source trees side by side; here it runs on this tree against itself."""

import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(__file__))
TOOL = os.path.join(ROOT, "tools", "readers_ab.py")
spec = importlib.util.spec_from_file_location("readers_ab", TOOL)
readers_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(readers_ab)

CASES = {"w_left_series_5", "reference_sequences", "list_records_seed1",
         "run_rows_csv_3000", "w_left_series_3000", "step_unitary_both",
         "iterate_5"}


@pytest.fixture
def two_trees():
    """The side-by-side packages, dropped from sys.modules afterwards."""
    yield
    for name in [name for name in sys.modules
                 if name.split(".")[0] in ("splitloop_parent",
                                           "splitloop_change")]:
        del sys.modules[name]


def test_two_rounds_on_one_tree(capsys, two_trees):
    src = os.path.join(ROOT, "src")
    assert readers_ab.main([src, src, "--rounds", "2", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == CASES
    for row in result.values():
        assert row["parent_us"] > 0 and row["change_us"] > 0
        assert row["paired_change_over_parent"] > 0
    # each tree is its own package, and the test's splitloop is neither
    assert {"splitloop_parent", "splitloop_change"} <= set(sys.modules)
    assert (sys.modules["splitloop_parent.trajectory"]
            is not sys.modules["splitloop_change.trajectory"])
