"""Outside-in layer trace for one sweep process.

Wraps the module-level names that ``digitpow.sweep.run_sweep`` and
``digitpow.checks.scan_splits`` look up at call time, so each call into
a layer records a span (name, parent span, start, end) without any
change to the package.  Spans live in flat arrays in memory and are
written to one binary file when the process ends; ``aggregate`` turns
that file into per-name calls, total time and self time (a span's
duration minus the durations of its direct children).

The wrapper costs about a microsecond per call.  That is noise beside
the per-row layers, but not beside ``_intops.pow10`` on many small
moduli, so the wrapper's cost is measured at start-up (``calibrate``),
written with the spans, and taken out of the self times by
``aggregate``.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name): plain functions the sweep resolves at
# call time.  A missing attribute is skipped, so the layer reads zero.
FUNCTIONS = (
    ("digitpow.sweep", "digit_scan", "bignum.digit_scan"),
    ("digitpow.sweep", "digit_sum", "bignum.digit_sum"),
    ("digitpow.sweep", "check_positions", "checks.check_positions"),
    ("digitpow.sweep", "scan_splits", "checks.scan_splits"),
    ("digitpow.sweep", "render_fraction", "ratios.render_fraction"),
    ("digitpow.sweep", "sample_split_positions", "sweep.sample_split_positions"),
    ("digitpow.sweep", "save_checkpoint", "power.save_checkpoint"),
    ("digitpow.sweep", "load_checkpoint", "power.load_checkpoint"),
    ("digitpow.sweep", "digit_sum_exceeds_log4", "intlog.predicates"),
    ("digitpow.sweep", "digit_count_formula_check", "intlog.predicates"),
)
# (module, class, method, span name)
METHODS = (
    ("digitpow.power", "PowerState", "step", "power.step"),
    ("digitpow.power", "PowerState", "step_back", "power.step_back"),
    ("digitpow.intlog", "FloorLog2Pow10Table", "ensure", "intlog.table_ensure"),
    ("digitpow.intlog", "DominanceCaps", "arrays", "intlog.caps"),
)
# _intops helpers are shared by the split scan and the intlog tables; a
# call is named after the split layer only when scan_splits made it.
SPLIT_HELPERS = (
    ("parse_decimal", "checks.split.parse", "intops.parse_decimal"),
    ("pow10", "checks.split.pow10", "intops.pow10"),
)

_CALIBRATION_CALLS = 20_000


class Tracer:
    """Span recorder; one per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.inside_s = 0.0
        self.outside_s = 0.0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None, split_name=None):
        """Return fn recording a span per call.

        count(args, result) adds to counts[name-specific keys]; split_name,
        when given, replaces name for calls whose parent is scan_splits.
        """
        nid = self._id(name)
        split_id = self._id(split_name) if split_name else nid
        scan_id = self._id("checks.scan_splits")
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            p = stack[-1]
            name_of.append(split_id if p >= 0 and name_of[p] == scan_id else nid)
            parent.append(p)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def calibrate(self) -> None:
        """Measure what one wrapper adds per call, inside and outside its span.

        The inside part (the wrapped call and one clock read) inflates the
        span's own duration; the rest lands in the parent's self time.
        """

        def noop(*args):
            return None

        probe = self.wrap("trace.calibration", noop)
        first = len(self.start)
        best_raw = best_wrapped = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(_CALIBRATION_CALLS):
                noop(1)
            t1 = time.perf_counter()
            for _ in range(_CALIBRATION_CALLS):
                probe(1)
            t2 = time.perf_counter()
            best_raw = min(best_raw, t1 - t0)
            best_wrapped = min(best_wrapped, t2 - t1)
        spans = [e - s for s, e in zip(self.start[first:], self.end[first:])]
        spans.sort()
        self.inside_s = spans[len(spans) // 2]
        added = max(0.0, (best_wrapped - best_raw) / _CALIBRATION_CALLS)
        self.outside_s = max(0.0, added - self.inside_s)
        # the probe's spans are not part of the run
        for arr in (self.name_of, self.parent, self.start, self.end):
            del arr[first:]

    def install(self, modules: dict) -> None:
        """Patch the traced names in the already-imported modules."""
        for mod, attr, name in FUNCTIONS:
            fn = getattr(modules[mod], attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            setattr(modules[mod], attr, self.wrap(name, fn, _COUNTERS.get(name)))
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(modules[mod], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self.missing.append(f"{mod}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self.wrap(name, fn, _COUNTERS.get(name)))
        intops = modules["digitpow._intops"]
        for attr, split_name, other_name in SPLIT_HELPERS:
            fn = getattr(intops, attr, None)
            if fn is None:
                self.missing.append(f"digitpow._intops.{attr}")
                continue
            setattr(intops, attr, self.wrap(other_name, fn, split_name=split_name))

    def dump(self, path: Path) -> None:
        """Write the spans and counts; aggregate() reads them back."""
        meta = {
            "names": self.names,
            "spans": len(self.start),
            "counts": dict(self.counts),
            "missing": self.missing,
            "inside_s": self.inside_s,
            "outside_s": self.outside_s,
        }
        with open(path, "wb") as fh:
            head = json.dumps(meta).encode("ascii")
            fh.write(len(head).to_bytes(8, "little"))
            fh.write(head)
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def _count_digit_scan(counts, args, result):
    counts["bignum.digits_scanned"] += result.digit_count


def _count_check_positions(counts, args, result):
    counts["checks.check_positions.nonzero_digits"] += len(args[0])


def _count_scan_splits(counts, args, result):
    counts["checks.scan_splits.positions"] += result[0]


def _count_save_checkpoint(counts, args, result):
    counts["power.checkpoint_bytes"] += os.path.getsize(result)


_COUNTERS = {
    "bignum.digit_scan": _count_digit_scan,
    "checks.check_positions": _count_check_positions,
    "checks.scan_splits": _count_scan_splits,
    "power.save_checkpoint": _count_save_checkpoint,
}


def aggregate(path: Path) -> dict:
    """Per-name calls, total_s and self_s, plus counts, from a dump file.

    Self time subtracts the children's durations and the calibrated
    wrapper cost: per child, the part that lands in its parent, and per
    span, the part inside the span itself.
    """
    import numpy as np

    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        meta = json.loads(fh.read(size))
        n = meta["spans"]
        name_of = np.fromfile(fh, dtype=np.int32, count=n)
        parent = np.fromfile(fh, dtype=np.int32, count=n)
        start = np.fromfile(fh, dtype=np.float64, count=n)
        end = np.fromfile(fh, dtype=np.float64, count=n)
    dur = end - start
    has_parent = parent >= 0
    child = np.zeros(n)
    np.add.at(child, parent[has_parent], dur[has_parent] + meta["outside_s"])
    self_s = dur - child - meta["inside_s"]
    names = meta["names"]
    k = len(names)
    calls = np.bincount(name_of, minlength=k)
    total = np.bincount(name_of, weights=dur, minlength=k)
    own = np.bincount(name_of, weights=self_s, minlength=k)
    layers = {
        names[i]: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        for i in range(k)
        if calls[i]
    }
    return {
        "layers": layers,
        "counts": meta["counts"],
        "missing": meta["missing"],
    }
