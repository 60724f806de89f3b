"""Source-wide style rules that no linter in the toolchain enforces."""

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
