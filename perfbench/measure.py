"""Percentiles, spans and process memory for the benchmark."""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from pathlib import Path

MIN_BEYOND = 10  # samples a reported percentile must leave above it


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it, so p90 needs at least 100 samples and p50 at least 20.
    """
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    if len(xs) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples leaves {len(xs) - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return xs[rank - 1]


def median(values) -> float:
    """Median, or 0.0 for no values."""
    return statistics.median(values) if values else 0.0


class Tracer:
    """Spans kept in memory: ``[name, start_ns, end_ns, parent, request_id]``.

    ``parent`` is the index of the enclosing span, or ``-1`` for a root.
    One tracer serves one thread. Spans are written out once, after the run.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []  # indices of the spans not yet closed

    def span(self, name: str, rid: int) -> "_Span":
        return _Span(self, name, rid)

    def self_ms(self) -> dict[int, dict[str, float]]:
        """Per request, self time in ms by span name: own duration minus
        the durations of the spans directly inside it."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for (name, start, end, _parent, rid), inner in zip(self.spans, child_ns):
            per = out.setdefault(rid, {})
            per[name] = per.get(name, 0.0) + (end - start - inner) / 1e6
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for n, start, end, _p, _r in self.spans if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest_id\n")
            for row in self.spans:
                fh.write("\t".join(map(str, row)) + "\n")


class NullTracer:
    """A tracer that records nothing, for the plain twin of a traced call."""

    def span(self, name: str, rid: int) -> contextlib.nullcontext:
        return contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "rid", "index")

    def __init__(self, tracer: Tracer, name: str, rid: int) -> None:
        self.tracer, self.name, self.rid = tracer, name, rid

    def __enter__(self) -> "_Span":
        stack = self.tracer._open
        parent = stack[-1] if stack else -1
        self.index = len(self.tracer.spans)
        self.tracer.spans.append([self.name, time.perf_counter_ns(), 0, parent, self.rid])
        stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][2] = time.perf_counter_ns()
        self.tracer._open.pop()


def peak_rss_mb(pid: int) -> float:
    """Largest ``VmHWM`` (peak resident set) of ``pid`` and its descendants."""
    best = 0.0
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    best = max(best, int(line.split()[1]) / 1024.0)
            for task in Path(f"/proc/{p}/task").iterdir():
                todo.extend(int(c) for c in (task / "children").read_text().split())
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited meanwhile
    return best

