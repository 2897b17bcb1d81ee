import re
from dataclasses import fields
from pathlib import Path

import pytest

from slipdyn.config import _SECTIONS
from slipdyn.corrector import RitzBasis
from slipdyn.evolution import SolverConfig
from slipdyn.interaction import QuadratureConfig
from slipdyn.measures import ScalingSchedule

README = Path(__file__).resolve().parent.parent / "README.md"

#: section -> the keys the loader reads: dataclass fields and experiment tables
KEYS = {**{name: {f.name for f in fields(cls)} for name, cls in (
            ("schedule", ScalingSchedule), ("quadrature", QuadratureConfig),
            ("basis", RitzBasis), ("solver", SolverConfig))},
        **{name: set(table) for name, table in _SECTIONS.values()}}


@pytest.mark.parametrize("section", sorted(KEYS))
def test_readme_schema_row_matches_loader(section):
    # the schema table's row names every key of the section, and each entry
    # written `key` (default or rule) is a key the loader accepts
    prefix = f"| `{section}` |"
    rows = [line[len(prefix):] for line in README.read_text().splitlines()
            if line.startswith(prefix)]
    assert len(rows) == 1, f"README has {len(rows)} schema rows for '{section}'"
    named = set(re.findall(r"`(\w+)`", rows[0]))
    listed = set(re.findall(r"`(\w+)` \(", rows[0]))
    assert KEYS[section] <= named, f"row misses {sorted(KEYS[section] - named)}"
    assert listed <= KEYS[section], f"row lists unknown keys {sorted(listed - KEYS[section])}"
