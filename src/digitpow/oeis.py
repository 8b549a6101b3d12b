"""OEIS b-file ingestion.

b-file format: one "index value" pair per line, whitespace-separated;
full-line '#' comments and blank lines are allowed.  Indices must be
contiguous from the first line's index, and values at least 1.
Malformed lines are errors with a line number, never silently skipped.
"""

from __future__ import annotations

from pathlib import Path


class BFileFormatError(ValueError):
    """A b-file line that cannot be accepted, with its line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_bfile(path: str | Path) -> dict[int, int]:
    """The b-file at path as index -> value, in index order."""
    values: dict[int, int] = {}
    expected = 0  # the index after the last data line's
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise BFileFormatError(line_no, f"expected 'index value', got {line!r}")
            try:
                idx = int(parts[0])
                val = int(parts[1])
            except ValueError:
                raise BFileFormatError(line_no, f"non-integer field in {line!r}") from None
            if val < 1:
                raise BFileFormatError(line_no, f"value must be >= 1, got {val}")
            if values and idx != expected:
                raise BFileFormatError(
                    line_no, f"non-contiguous index: expected {expected}, got {idx}"
                )
            expected = idx + 1
            values[idx] = val
    if not values:
        raise BFileFormatError(0, "no data lines")
    return values
