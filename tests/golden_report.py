"""The golden report, and what a report's bytes change against it, cell by cell.

``golden/report.json`` is ``epipool report`` at the default seed and plan.
A change that moves report cells on purpose regenerates it with

    PYTHONPATH=src python -m epipool.cli report > tests/golden/report.json

and the file's diff shows the cells that moved.
"""

import json
from pathlib import Path

GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "report.json"


def report_changes(golden: bytes, actual: bytes) -> str:
    """'' when actual is golden byte for byte; otherwise one line per change:
    a top-level field (seed, plan, counts), a cell removed or added, a cell's
    changed fields, and the cells whose order changed.  Cells are keyed by
    name, which is unique within a report."""
    if actual == golden:
        return ""
    try:
        new = json.loads(actual)
    except ValueError as exc:
        return f"the report is not JSON: {exc}"
    old = json.loads(golden)
    lines = [
        f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
        for key in sorted((old.keys() | new.keys()) - {"cells"})
        if old.get(key) != new.get(key)
    ]
    old_cells = {cell["cell"]: cell for cell in old["cells"]}
    new_cells = {cell["cell"]: cell for cell in new.get("cells", [])}
    lines += [f"cell {name!r} removed" for name in old_cells if name not in new_cells]
    lines += [f"cell {name!r} added" for name in new_cells if name not in old_cells]
    for name, cell in old_cells.items():
        other = new_cells.get(name)
        if other is None:
            continue
        fields = sorted(k for k in cell.keys() | other.keys() if cell.get(k) != other.get(k))
        if fields:
            lines.append(f"cell {name!r} changed: {', '.join(fields)}")
    kept = [name for name in old_cells if name in new_cells]
    moved = [a for a, b in zip(kept, (name for name in new_cells if name in old_cells)) if a != b]
    if moved:
        lines.append(f"cells reordered: {', '.join(map(repr, moved))} moved")
    return "\n".join(lines) or "the bytes differ, but no field or cell does (formatting)"
