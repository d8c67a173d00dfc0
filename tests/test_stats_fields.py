"""Guard against dead ``RuntimeStats`` counters.

Every ``RuntimeStats`` field must be

* written in ``src/repro`` outside ``stats.py`` — assigned or
  incremented (``stats.name += 1``, ``stats.name[key] = ...``), or
  filled by a ``record_*`` method of ``RuntimeStats`` that is called
  there; and
* read by a ``*_summary()`` method, by ``obs/profile.py``, or outside
  ``src`` (tests, benchmarks, perfbench, examples) — as an attribute
  load or a string naming it (``getattr(stats, "name")``).

A counter nothing writes, or one nothing reads, fails here instead of
lingering as a field every merge walks.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.runtime.stats import RuntimeStats

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
STATS = SRC / "runtime" / "stats.py"
OUTSIDE = ("tests", "benchmarks", "perfbench", "examples")
FIELDS = [spec.name for spec in dataclasses.fields(RuntimeStats)]


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _self_fields(method: ast.FunctionDef) -> set[str]:
    return {
        node.attr for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def _methods() -> dict[str, set[str]]:
    """RuntimeStats method name -> the ``self.<field>`` names it uses."""
    (cls,) = [node for node in _tree(STATS).body
              if isinstance(node, ast.ClassDef)
              and node.name == "RuntimeStats"]
    return {node.name: _self_fields(node) for node in cls.body
            if isinstance(node, ast.FunctionDef)}


def _written_in_src() -> set[str]:
    """Fields stored directly, plus ``record_*`` methods called."""
    written: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path == STATS:
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Store
            ):
                written.add(node.attr)
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Store
            ) and isinstance(node.value, ast.Attribute):
                written.add(node.value.attr)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr.startswith("record_"):
                written.add(node.func.attr)
    methods = _methods()
    for name in [w for w in written if w.startswith("record_")]:
        written |= methods.get(name, set())
    return written


def _read() -> set[str]:
    """Fields summaries use, plus names loaded in profile.py or
    outside ``src``."""
    read: set[str] = set()
    for name, used in _methods().items():
        if name.endswith("_summary"):
            read |= used
    paths = [SRC / "obs" / "profile.py"]
    for folder in OUTSIDE:
        paths.extend((ROOT / folder).rglob("*.py"))
    for path in paths:
        if path == Path(__file__).resolve():
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                read.add(node.value)
    return read


@pytest.fixture(scope="module")
def written() -> set[str]:
    return _written_in_src()


@pytest.fixture(scope="module")
def read() -> set[str]:
    return _read()


@pytest.mark.parametrize("name", FIELDS)
def test_every_stats_field_is_written(name, written):
    assert name in written, (
        f"RuntimeStats.{name} is never written in src/repro "
        "outside stats.py"
    )


@pytest.mark.parametrize("name", FIELDS)
def test_every_stats_field_is_read(name, read):
    assert name in read, (
        f"RuntimeStats.{name} is read by no summary, not by "
        "obs/profile.py, and nowhere outside src"
    )
