"""README's library overview against the package's exports.

Each row of the "Library overview" table names a module and lists, in
backticks, what it offers.  Every listed name must be an attribute of that
module, and the rows other than ``cli`` must list exactly
``posetassoc.__all__``, so the table cannot drift from the exports.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import posetassoc

README = Path(__file__).resolve().parents[1] / "README.md"


def overview_rows() -> dict[str, list[str]]:
    """Module name to the backticked names of its row in the overview table."""
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    rows: dict[str, list[str]] = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            if rows:
                break
            continue
        module_cell, contents = line.strip("|").split("|", 1)
        module = re.fullmatch(r"\s*`(\w+)`\s*", module_cell).group(1)
        rows[module] = re.findall(r"`([^`]+)`", contents)
    return rows


def test_every_listed_name_is_in_its_module():
    rows = overview_rows()
    assert rows, "the library overview table was not found"
    for module, names in rows.items():
        loaded = importlib.import_module(f"posetassoc.{module}")
        missing = [name for name in names if not hasattr(loaded, name)]
        assert not missing, (module, missing)


def test_the_table_lists_exactly_the_exports():
    listed = [name for module, names in overview_rows().items() if module != "cli"
              for name in names]
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert sorted(listed) == sorted(posetassoc.__all__)
