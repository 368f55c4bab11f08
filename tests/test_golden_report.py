"""report_changes names exactly the parts of a report that differ from the golden file."""

import copy
import json
import re

import pytest

from golden_report import GOLDEN_REPORT, report_changes

GOLDEN = GOLDEN_REPORT.read_bytes()
DOC = json.loads(GOLDEN)
NAMES = [cell["cell"] for cell in DOC["cells"]]
# a falsified cell, so it carries a witness to edit
WITNESSED = next(i for i, cell in enumerate(DOC["cells"]) if "witness" in cell)


def dumps(doc: dict) -> bytes:
    """The report's own serialization (Report.to_json)."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def edited(edit) -> bytes:
    doc = copy.deepcopy(DOC)
    edit(doc)
    return dumps(doc)


def named_cells(message: str) -> set[str]:
    return set(re.findall(r"'([^']+)'", message)) & set(NAMES)


def test_the_golden_file_is_the_reports_own_serialization():
    """So that an edited copy differs from the golden file only where edited."""
    assert dumps(DOC) == GOLDEN
    assert len(set(NAMES)) == len(NAMES)


def test_identical_bytes_give_no_message():
    assert report_changes(GOLDEN, bytes(GOLDEN)) == ""


@pytest.mark.parametrize(
    "field, value",
    [("status", "edited"), ("trials", -1), ("witness", {"kind": "edited"}), ("note", "edited")],
)
def test_a_one_cell_edit_names_that_cell_and_field_and_no_other(field, value):
    def edit(doc):
        doc["cells"][WITNESSED][field] = value

    message = report_changes(GOLDEN, edited(edit))
    assert message == f"cell {NAMES[WITNESSED]!r} changed: {field}"


def test_a_cell_that_gains_or_loses_a_field_names_it():
    bare = next(i for i, cell in enumerate(DOC["cells"]) if "witness" not in cell)

    def gain(doc):
        doc["cells"][bare]["witness"] = DOC["cells"][WITNESSED]["witness"]

    assert report_changes(GOLDEN, edited(gain)) == f"cell {NAMES[bare]!r} changed: witness"
    message = report_changes(GOLDEN, edited(lambda doc: doc["cells"][WITNESSED].pop("witness")))
    assert message == f"cell {NAMES[WITNESSED]!r} changed: witness"


def test_a_removed_cell_is_named():
    message = report_changes(GOLDEN, edited(lambda doc: doc["cells"].pop(7)))
    assert message == f"cell {NAMES[7]!r} removed"


def test_an_added_cell_is_named():
    def add(doc):
        doc["cells"].append({**doc["cells"][0], "cell": "realizability:new:row"})

    message = report_changes(GOLDEN, edited(add))
    assert message == "cell 'realizability:new:row' added"


def test_a_swapped_pair_of_cells_names_both_and_no_other():
    def swap(doc):
        cells = doc["cells"]
        cells[3], cells[40] = cells[40], cells[3]

    message = report_changes(GOLDEN, edited(swap))
    assert message.startswith("cells reordered: ")
    assert named_cells(message) == {NAMES[3], NAMES[40]}


@pytest.mark.parametrize("key", ["counts", "plan", "seed"])
def test_a_top_level_edit_is_named(key):
    def edit(doc):
        doc[key] = {"verified-on-grid": 29} if key == "counts" else 1

    message = report_changes(GOLDEN, edited(edit))
    assert message.startswith(f"{key}: ")
    assert "\n" not in message and not named_cells(message)


def test_each_of_several_changes_gets_its_own_line():
    def edit(doc):
        doc["cells"][0]["status"] = "edited"
        doc["cells"][1]["trials"] = -1
        doc["counts"]["skipped"] += 1

    counts = DOC["counts"]
    lines = report_changes(GOLDEN, edited(edit)).splitlines()
    assert lines == [
        f"counts: {counts!r} -> {({**counts, 'skipped': counts['skipped'] + 1})!r}",
        f"cell {NAMES[0]!r} changed: status",
        f"cell {NAMES[1]!r} changed: trials",
    ]


def test_equal_json_in_other_bytes_and_output_that_is_not_json_are_reported():
    assert "formatting" in report_changes(GOLDEN, json.dumps(DOC, sort_keys=True).encode())
    assert report_changes(GOLDEN, b"").startswith("the report is not JSON")
