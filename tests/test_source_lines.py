"""No line of the package source is longer than MAX_LINE characters.

MAX_LINE is the longest line the package had when this guard was added, so
a change cannot shorten the package by packing its lines denser.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rstcnn"
MAX_LINE = 131


def test_no_source_line_is_longer_than_max_line():
    long_lines = [
        f"{path.name}:{number} has {len(line)} characters"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines
