"""The package order: every import under ``src/repro`` points down it.

substrate ← paper ← service ← harness; within a layer the listed order
holds too.  A package may import itself and anything *earlier* in
``ORDER`` — function-level imports included, so a cycle cannot hide in
a function body.  ``repro/__init__.py`` and ``__main__.py`` sit on top.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ORDER = (
    "utils", "text", "corpus", "synth", "lm", "index", "obs",
    "backend", "sampling", "sizeest", "starts", "dbselect", "summarize", "expansion",
    "store", "fleet", "classify", "federation", "serving", "gateway",
    "experiments", "scenarios", "cli",
)  # fmt: skip
RANK = {package: rank for rank, package in enumerate(ORDER)}


def upward_imports(source: str, filename: str) -> list[str]:
    """``file:line: package -> later package`` for each import that points up."""
    package = filename.split("/")[0].removesuffix(".py")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{filename}:{node.lineno}: relative import"
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in sorted({n.split(".")[1] for n in names if n.startswith("repro.")}):
            if RANK.get(target, -1) > RANK.get(package, len(ORDER)):
                found.append(f"{filename}:{node.lineno}: {package} -> {target}")
    return found


def test_order_names_every_package():
    present = {path.name.removesuffix(".py") for path in SRC.iterdir()}
    assert set(ORDER) == {name for name in present if not name.startswith("_")}


def test_every_import_points_down_the_order():
    found = [
        edge
        for path in sorted(SRC.rglob("*.py"))
        for edge in upward_imports(path.read_text(), path.relative_to(SRC).as_posix())
    ]
    assert not found, "imports that point up the package order:\n" + "\n".join(found)


def test_a_function_level_upward_import_is_seen():
    source = "def report():\n    from repro.experiments.reporting import format_series\n"
    assert upward_imports(source, "obs/report.py") == [
        "obs/report.py:2: obs -> experiments"
    ]
