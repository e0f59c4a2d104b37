"""Spans around the benchmark's calls into specgap, and timing proxies.

The program itself is not instrumented.  The benchmark routes each public
call through ``Tracer.call`` and hands the library a chain and a start
sampler wrapped in proxies that time every method call, so the spans sit
at the boundary between caller-supplied code and the library.

A span is (id, name, parent id, estimation id, start, end), packed as six
doubles.  Spans are kept in memory, one buffer per thread so worker threads
never share one, and written out when the benchmark ends.  Only public
calls get an id (leaf spans have id -1), because only they are parents.
A trace-file source is timed in chunks of ``SOURCE_CHUNK`` states: one
span per state would cost more than reading the state.

``NullTracer`` has the same interface and adds nothing but one Python call
per public call, so traced and untraced runs execute the same code.
"""

from __future__ import annotations

import itertools
import json
import struct
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

FIELDS = ("id", "name", "parent", "estimation", "start", "end")
SPAN = struct.Struct("<6d")

#: States a traced trace-file source reads per span.
SOURCE_CHUNK = 4096


class NullTracer:
    """Pass-through: no spans, no proxies."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def chain(self, chain):
        return chain

    def sampler(self, sampler):
        return sampler

    def iterate(self, name, iterable):
        return iterable


class Tracer(NullTracer):
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[bytearray] = []
        self._stack: list[int] = []  # open public-call spans (benchmark thread only)
        self.estimation = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _append(self, span_id, name_id, parent, start, end) -> None:
        try:
            buf = self._local.buf
        except AttributeError:
            buf = self._local.buf = bytearray()
            self._buffers.append(buf)
        buf += SPAN.pack(span_id, name_id, parent, self.estimation, start, end)

    def record(self, name_id: int, start: float, end: float) -> None:
        """One leaf span, parented to the public call open at the time."""
        stack = self._stack
        self._append(-1, name_id, stack[-1] if stack else -1, start, end)

    def call(self, name, fn, *args, **kwargs):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._append(span_id, self.name_id(name), parent, start, end)

    def chain(self, chain):
        return TimedChain(chain, self)

    def sampler(self, sampler):
        return TimedSampler(sampler, self)

    def iterate(self, name, iterable):
        name_id = self.name_id(name)
        it = iter(iterable)
        while True:
            start = perf_counter()
            chunk = list(itertools.islice(it, SOURCE_CHUNK))
            self.record(name_id, start, perf_counter())
            if not chunk:
                return
            yield from chunk

    def spans(self) -> np.ndarray:
        """All spans so far as an (n, 6) float array."""
        flat = b"".join(bytes(b) for b in self._buffers)
        return np.frombuffer(flat, dtype="<f8").reshape(-1, len(FIELDS))

    def write(self, directory: Path, stem: str, summary: dict) -> None:
        """Spans to ``<stem>.npz``; span names and ``summary`` to ``<stem>.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        np.savez(directory / f"{stem}.npz", spans=self.spans(), fields=np.array(FIELDS))
        doc = {"span_fields": FIELDS, "names": self.names, **summary}
        (directory / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")


class TimedChain:
    """Chain proxy timing ``next_state`` and ``step_with_uniforms``.

    Exposes ``uniforms_per_step`` only when the wrapped chain does, so the
    library picks the same scalar or vectorized path as for the bare chain.
    ``states`` counts the states advanced by the vectorized kernel; it
    appends batch sizes, because ``list.append`` is atomic across threads.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._next_id = tracer.name_id("chains.next_state")
        self._step_id = tracer.name_id("chains.step_with_uniforms")
        self._batch_sizes: list[int] = []
        ups = getattr(inner, "uniforms_per_step", None)
        if ups is not None:
            self.uniforms_per_step = ups

    def state_space_size(self):
        return self._inner.state_space_size()

    def next_state(self, x, rng):
        start = perf_counter()
        y = self._inner.next_state(x, rng)
        self._tracer.record(self._next_id, start, perf_counter())
        return y

    def step_with_uniforms(self, xs, us):
        start = perf_counter()
        out = self._inner.step_with_uniforms(xs, us)
        self._tracer.record(self._step_id, start, perf_counter())
        self._batch_sizes.append(len(xs))
        return out

    @property
    def states(self) -> int:
        return sum(self._batch_sizes)


class TimedSampler:
    """Start-sampler proxy timing ``sample``, ``pmf`` and ``min_pmf``."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._ids = {m: tracer.name_id(f"chains.{m}") for m in ("sample", "pmf", "min_pmf")}

    def _timed(self, method, *args):
        start = perf_counter()
        out = getattr(self._inner, method)(*args)
        self._tracer.record(self._ids[method], start, perf_counter())
        return out

    def sample(self, rng):
        return self._timed("sample", rng)

    def pmf(self, x):
        return self._timed("pmf", x)

    def min_pmf(self):
        return self._timed("min_pmf")


def union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length covered by a set of intervals that may overlap."""
    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    # A new covered run begins where an interval starts after every earlier one ended.
    first = np.flatnonzero(np.concatenate([[True], s[1:] > reach[:-1]]))
    return float((np.maximum.reduceat(e, first) - s[first]).sum())


def layer_times(tracer: Tracer, estimation: int) -> dict:
    """Per-name totals for one estimation: calls, summed busy time, self time.

    ``busy`` sums span durations, so leaf calls made by two worker threads
    at once count twice.  ``self`` is only defined for public calls: the
    span's duration minus the part of it that its child spans cover (the
    union of their intervals).
    """
    spans = tracer.spans()
    spans = spans[spans[:, 3] == estimation]
    out: dict[str, dict] = {}
    for name_id, name in enumerate(tracer.names):
        mine = spans[spans[:, 1] == name_id]
        if not len(mine):
            continue
        entry = {"calls": len(mine), "busy": float((mine[:, 5] - mine[:, 4]).sum())}
        if mine[0, 0] >= 0:  # a public call, not a leaf
            covered = 0.0
            for span_id, start, end in mine[:, [0, 4, 5]]:
                kids = spans[spans[:, 2] == span_id]
                covered += union_length(np.clip(kids[:, 4], start, end), np.clip(kids[:, 5], start, end))
            entry["self"] = entry["busy"] - covered
        out[name] = entry
    return out
