"""OEIS b-file ingestion and cross-checking against computed digit sums.

b-file format: one "index value" pair per line, whitespace-separated;
full-line '#' comments and blank lines are allowed.  Indices must be
contiguous from the first line's index.  Malformed lines are errors
with a line number, never silently skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping


class BFileFormatError(ValueError):
    """A b-file line that cannot be accepted, with its line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class OeisSeries:
    """Contiguous b-file values: entry n -> a(n) for n in [offset, last]."""

    offset: int
    values: tuple[int, ...]

    @property
    def last(self) -> int:
        return self.offset + len(self.values) - 1

    def __contains__(self, n: int) -> bool:
        return self.offset <= n <= self.last

    def __getitem__(self, n: int) -> int:
        if n not in self:
            raise KeyError(n)
        return self.values[n - self.offset]


def parse_bfile(source: str | Path | IO[str]) -> OeisSeries:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _parse_lines(fh)
    return _parse_lines(source)


def _parse_lines(lines: Iterable[str]) -> OeisSeries:
    offset = None
    values: list[int] = []
    expected = 0
    for line_no, raw in enumerate(lines, start=1):
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
        if offset is None:
            offset = idx
        elif idx != expected:
            raise BFileFormatError(
                line_no, f"non-contiguous index: expected {expected}, got {idx}"
            )
        expected = idx + 1
        values.append(val)
    if offset is None:
        raise BFileFormatError(0, "no data lines")
    return OeisSeries(offset, tuple(values))


@dataclass(frozen=True)
class CrossCheckReport:
    compared: int
    mismatches: tuple[tuple[int, int, int], ...]  # (n, series value, computed)
    overlap_empty: bool = field(default=False)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.overlap_empty


def cross_check(series: OeisSeries, computed: Mapping[int, int]) -> CrossCheckReport:
    """Compare the series against computed values on the index overlap."""
    overlap = [n for n in computed if n in series]
    if not overlap:
        return CrossCheckReport(0, (), overlap_empty=True)
    mismatches = []
    for n in sorted(overlap):
        if series[n] != computed[n]:
            mismatches.append((n, series[n], computed[n]))
    return CrossCheckReport(len(overlap), tuple(mismatches))
