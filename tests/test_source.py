"""Static checks on the package source."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "randsurf"


def test_no_assert_statements_in_the_package():
    # invariants must raise real errors; assert vanishes under python -O
    files = sorted(SOURCE.glob("*.py"))
    assert files, f"no sources under {SOURCE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
