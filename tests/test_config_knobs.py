"""Guard against dead configuration knobs.

Every ``CodegenConfig`` / ``ClusterConfig`` field must be read somewhere
in ``src/repro`` — as an attribute access (``config.name``) or a
``getattr(..., "name")`` — beyond its own declaration, so a knob whose
last reader is removed fails here instead of lingering silently.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.config import ClusterConfig, CodegenConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _sources() -> dict[Path, str]:
    return {path: path.read_text() for path in SRC.rglob("*.py")}


def _readers(name: str, sources: dict[Path, str]) -> list[Path]:
    pattern = re.compile(
        rf"\.{name}\b|getattr\([^)]*[\"']{name}[\"']"
    )
    return [path for path, text in sources.items() if pattern.search(text)]


KNOBS = [
    (cls.__name__, field.name)
    for cls in (CodegenConfig, ClusterConfig)
    for field in dataclasses.fields(cls)
]


@pytest.mark.parametrize("owner,name", KNOBS,
                         ids=[f"{o}.{n}" for o, n in KNOBS])
def test_every_config_field_is_read(owner, name):
    assert _readers(name, _sources()), (
        f"{owner}.{name} is declared but never read in src/repro"
    )

