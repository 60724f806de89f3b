"""Source-wide style rules that no linter in the toolchain enforces."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_source_line_over_120_characters():
    long_lines = [
        f"{path.relative_to(SRC)}:{number}: {len(line)} characters"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 120
    ]
    assert not long_lines, "\n".join(long_lines)


def test_no_private_name_imported_from_another_oncograde_module():
    imports = [
        f"{path.relative_to(SRC)}:{node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "oncograde")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")  # a dunder like __version__ is public
    ]
    assert not imports, "\n".join(imports)
