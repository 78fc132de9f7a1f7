"""In-memory span recorder that wraps lingamkit's public functions from outside.

``Tracer.install()`` replaces, for the duration of a ``with`` block, the
names each lingamkit module calls into (``lingamkit.direct.t_profile``,
``lingamkit.ica.fastica``, ...) with wrappers that record a span: name,
start, end, parent span, thread and the exception raised, if any. A few
hot, tiny calls are only counted. The package itself is not modified.

Spans started inside the sweep's thread pool take the span that
submitted the work as their parent, so one operation forms one tree
across threads. ``self_times`` charges each instant of an operation to
the innermost spans active at that instant, sharing it equally when
several threads are inside spans at once; on one thread that is the
span's duration minus the time its children cover, and over any tree
the self times add up to the root's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

# (module whose global is replaced, attribute, span name). The span name
# is "<layer>.<what>", where the layer is the module that owns the work.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_csv", "cli.load_csv"),
    ("cli", "write_dataset_csv", "cli.write_dataset_csv"),
    ("cli", "generate", "synth.generate"),
    ("cli", "bootstrap_cis", "bootstrap.bootstrap_cis"),
    ("cli", "run_benchmark", "evaluation.run_benchmark"),
    ("cli", "ica_lingam_fit", "ica.ica_lingam_fit"),
    ("direct", "fit", "direct.fit"),
    ("direct", "estimate_order", "direct.estimate_order"),
    ("direct", "estimate_strengths", "direct.estimate_strengths"),
    ("direct", "center", "direct.center"),
    ("direct", "t_profile", "independence.t_profile"),
    ("direct", "simple_residual", "direct.residualize"),
    ("direct", "multi_least_squares", "core.multi_least_squares"),
    ("bootstrap", "center", "bootstrap.center"),
    ("bootstrap", "estimate_strengths", "direct.estimate_strengths"),
    ("evaluation", "generate", "synth.generate"),
    ("evaluation", "ica_lingam_fit", "ica.ica_lingam_fit"),
    ("ica", "fastica", "ica.fastica"),
    ("ica", "diagonal_permutation", "ica.diagonal_permutation"),
    ("ica", "prune_and_order", "ica.prune_and_order"),
)

# Span name -> (counter name, test on the call's result): counted when true.
RESULT_COUNTERS = {
    "ica.fastica": ("ica.fastica_nonconverged", lambda result: not result[1]),
}

# (module, attribute, counter name, weight of one call). Counted, not spanned:
# these run thousands of times per operation at a few microseconds each.
COUNTERS = (
    ("independence", "simple_residual", "independence.pair_scores", None),
    ("independence", "simple_residual", "independence.pair_obs", lambda args: len(args[0])),
    ("ica", "find_strict_lower_permutation", "ica.prune_checks", None),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    error: str | None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans and counts; safe to use from several threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.archive: list[dict] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _span_wrapper(self, name: str, fn):
        counter, test = RESULT_COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            stack.append(span_id)
            error = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                span = Span(span_id, name, start, end, parent, threading.get_ident(), error)
                with self._lock:
                    self.spans.append(span)
            if counter and test(result):
                self.add(counter)
            return result

        return wrapper

    def _count_wrapper(self, name: str, weight, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name, 1 if weight is None else weight(args))
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Runs submitted work under the submitting thread's current span."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run():
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()

                return super().submit(run)

        return TracedPool

    @contextmanager
    def install(self):
        """Wrap every entry of SPANS and COUNTERS; restore the originals on exit."""
        saved = []
        wrapped: dict[tuple[str, str], object] = {}
        for module_name, attr, span_name in SPANS:
            module = importlib.import_module(f"lingamkit.{module_name}")
            saved.append((module, attr, getattr(module, attr)))
            wrapped[module_name, attr] = self._span_wrapper(span_name, getattr(module, attr))
        for module_name, attr, counter_name, weight in COUNTERS:
            module = importlib.import_module(f"lingamkit.{module_name}")
            if (module_name, attr) not in wrapped:
                saved.append((module, attr, getattr(module, attr)))
                wrapped[module_name, attr] = getattr(module, attr)
            wrapped[module_name, attr] = self._count_wrapper(
                counter_name, weight, wrapped[module_name, attr]
            )
        evaluation = importlib.import_module("lingamkit.evaluation")
        saved.append((evaluation, "ThreadPoolExecutor", evaluation.ThreadPoolExecutor))
        wrapped["evaluation", "ThreadPoolExecutor"] = self._pool_class()
        try:
            for (module_name, attr), fn in wrapped.items():
                setattr(importlib.import_module(f"lingamkit.{module_name}"), attr, fn)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def take(self, label: str) -> tuple[list[Span], Counter]:
        """Hand over the spans and counts recorded so far, keep a copy for the
        trace file, and start afresh."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], Counter()
        self.archive.append({
            "label": label,
            "counts": dict(counts),
            "spans": [
                [s.id, s.name, s.start_ns, s.end_ns, s.parent, s.thread, s.error] for s in spans
            ],
        })
        return spans, counts

    def write(self, path, meta: dict) -> None:
        doc = {
            "schema": "perfbench-trace/1",
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "thread", "error"],
            "meta": meta,
            "units": self.archive,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of wall time charged to each span (see the module docstring)."""
    events = []
    for s in spans:
        events.append((s.start_ns, 1, s.id, s))
        events.append((s.end_ns, 0, -s.id, s))
    events.sort(key=lambda e: e[:3])
    active_children: Counter = Counter()
    active: set[int] = set()
    leaves: set[int] = set()
    charged: dict[int, float] = defaultdict(float)
    last = None
    for t, is_start, _, s in events:
        if last is not None and leaves and t > last:
            share = (t - last) / 1e9 / len(leaves)
            for leaf in leaves:
                charged[leaf] += share
        last = t
        if is_start:
            active.add(s.id)
            leaves.add(s.id)
            if s.parent is not None:
                active_children[s.parent] += 1
                leaves.discard(s.parent)
        else:
            active.discard(s.id)
            leaves.discard(s.id)
            if s.parent is not None:
                active_children[s.parent] -= 1
                if active_children[s.parent] == 0 and s.parent in active:
                    leaves.add(s.parent)
    return {s.id: charged.get(s.id, 0.0) for s in spans}
