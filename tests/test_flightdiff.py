"""``tools/flightdiff.py``, the behaviour oracle, on a short hover: a tree
flies identically to itself, one changed float on the flight path is found,
and a flight that neither tree flies fails."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SHORT_HOVER = (("hover-2s", "scenario = hover\ntotal_time = 2\n"),)


@pytest.fixture(scope="module")
def flightdiff():
    spec = importlib.util.spec_from_file_location("flightdiff", ROOT / "tools" / "flightdiff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def flown(flightdiff, capsys, tree, code, flights=SHORT_HOVER):
    """The table row of the one flight and the run lines below it, after
    checking the exit status and the output's layout."""
    assert flightdiff.main(["--against", str(tree)], flights=flights) == code
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "| flight | steps | failures | total iterations | RMS error m | path end s | longest stall s | |"
    assert len(out) == 8 and out[4] == ""
    return out[3], out[5:]


def test_working_tree_against_itself_is_identical(flightdiff, capsys):
    row, lines = flown(flightdiff, capsys, ROOT, 0)
    assert row.startswith("| hover-2s | 40 | 0 | ") and row.endswith(" | same |")
    assert "->" not in row
    assert lines == ["validate: identical", "hover-2s: identical", "identical"]


@pytest.fixture
def perturbed_tree(tmp_path):
    """A copy of this tree's source with the hover point 1e-7 higher."""
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    paths = tree / "src" / "quadpath" / "paths.py"
    text = paths.read_text()
    assert text.count("HOVER_POINT = np.array([0.0, 0.0, 0.5, 0.0])") == 1
    paths.write_text(text.replace("HOVER_POINT = np.array([0.0, 0.0, 0.5, 0.0])",
                                  "HOVER_POINT = np.array([0.0, 0.0, 0.5000001, 0.0])"))
    return tree


def test_one_changed_float_on_the_flight_path_fails(flightdiff, perturbed_tree, capsys):
    row, lines = flown(flightdiff, capsys, perturbed_tree, 1)
    assert row.startswith("| hover-2s | 40 | 0 | ") and row.endswith(" | differs |")
    assert " -> " in row.split(" | ")[4]  # the RMS error
    assert lines[0] == "validate: identical" and lines[2] == "differences found"
    assert lines[1].startswith("hover-2s: log.csv row 2, column ")


def test_a_flight_neither_tree_flies_fails(flightdiff, capsys):
    refused = (("nan-bound", "scenario = sinusoid\nyawrate_cmd_bound = nan\n"),)
    row, lines = flown(flightdiff, capsys, ROOT, 1, flights=refused)
    assert row == "| nan-bound |" + " <missing> |" * 6 + " same |"
    assert lines == ["validate: identical", "nan-bound: identical", "a flight wrote no summary"]


def test_unknown_revision_is_refused(flightdiff, tmp_path, capsys):
    assert flightdiff.main(["--against", str(tmp_path / "no-such-tree")], flights=()) == 2
    assert capsys.readouterr().err.startswith("flightdiff: no source tree or revision")


def test_summary_keys_appended_by_one_tree_are_not_a_difference(flightdiff):
    ours = {"summary.json": [["steps", "3"], ["total_solver_iters", "7"]]}
    assert flightdiff.first_difference(ours, {"summary.json": [["steps", "3"]]}) is None
    assert flightdiff.first_difference({"summary.json": [["steps", "3"]]}, ours) is None
    assert flightdiff.first_difference(ours, {"summary.json": [["steps", "4"]]}) == \
        "summary.json row 1, column 2: 3 != 4"
