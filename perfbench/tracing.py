"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits the program: :meth:`Tracer.wrap` replaces a
public function or method with a wrapper that opens a span around each
call, and :meth:`Tracer.restore` puts the original back.  Spans live in
memory (``name, start, end, parent, run id``) and are written as JSONL
when the run ends.  Pool workers forked from a traced process inherit
the wrappers; :meth:`Tracer.flush` lets a wrapped job write its own
spans before it returns.

For calls too frequent to keep one span each (``candidate_tiers`` runs
tens of thousands of times per case), :meth:`Tracer.count` keeps only a
call count and total time at the boundary.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str, out_dir: Path | None = None) -> None:
        self.run_id = run_id
        self.out_dir = out_dir
        self.spans: list[dict] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._flushes = itertools.count()

    # Spans ------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        span = {
            "name": name,
            "id": f"{os.getpid()}.{next(self._ids)}",
            "parent": stack[-1] if stack else None,
            "run_id": self.run_id,
            "pid": os.getpid(),
            "start": clock(),
            "end": None,
        }
        if attrs:
            span["attrs"] = attrs
        stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = clock()
            stack.pop()
            self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, *, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *after*, if given, is called with ``(span, result)`` once the
        call returns, e.g. to note a cache hit.  ``functools.wraps``
        keeps the qualified name, so a wrapped pool worker still
        pickles by reference.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, result)
            return result

        self._install(owner, attr, original, wrapper)

    def wrap_job(self, owner, attr: str, name: str) -> None:
        """Like :meth:`wrap`, then write this process's spans to a file.

        For pool workers: the parent never sees a forked child's memory,
        so each job leaves its spans in ``out_dir`` before returning.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            tracer.flush()
            return result

        self._install(owner, attr, original, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts and times."""
        original = getattr(owner, attr)
        cell = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                cell[1] += clock() - t0
                cell[0] += 1

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # Output -----------------------------------------------------------
    def flush(self) -> Path | None:
        """Write this process's finished spans to a new JSONL file."""
        # A forked child inherits the parent's finished spans; write
        # only the ones this process recorded.
        pid = os.getpid()
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = []
        if self.out_dir is None or not mine:
            return None
        path = self.out_dir / f"spans-{pid}-{next(self._flushes)}.jsonl"
        write_spans(path, mine)
        return path


def write_spans(path: Path, spans: list[dict]) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(directory: Path) -> list[dict]:
    spans: list[dict] = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of *intervals*."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (children may overlap one another).
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - _covered(children.get(s["id"], []), s["start"], s["end"])
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def total_times(spans: list[dict]) -> dict[str, float]:
    """Total (inclusive) duration per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
    return out


def counts(spans: list[dict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0) + 1
    return out
