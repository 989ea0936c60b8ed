"""Tasks, timing, spans and work counters for the coalstab benchmark.

A workload is a fixed list of tasks.  A task is one benchmark call into a
library layer followed by a check of its output; only the call is timed as
the task's latency.  Work counts are collected per pass and must repeat
exactly from pass to pass.  When tracing is on, every benchmark call into a
layer records a span (name, start, end, parent span, task id); spans stay in
memory and the run writes them out when it ends.

Times are normalised to a reference machine speed.  The machine this was
built on shares its cores with other tenants, and its speed for pure-Python
code changes by a quarter and more from second to second and from minute to
minute; no statistic within one run can remove the slow part.  A fixed
calibration kernel, which no change to coalstab can make faster or slower,
runs right before every task and at the end of each pass; the task's
measured time is multiplied by REFERENCE_S over the mean kernel time of the
probes just before and just after it.  For in-process code the ratio of
task time to kernel time stays within a few per cent while each drifts by a
quarter; child processes follow the kernel less closely, but the drift
still goes.  Raw times are kept beside the normalised ones in the pass
records.
"""

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

REFERENCE_S = 0.003  # the kernel's typical time on the 2-core machine it was tuned on


def calibration_kernel():
    """Fixed work in exact rationals, ints, lists and dicts: the operations
    coalstab spends its time in, without any coalstab code."""
    total = Fraction(0)
    for i in range(1, 450):
        total += Fraction(i % 7 + 1, i % 97 + 1)
    table = {}
    row = [0] * 64
    for i in range(4500):
        row[i & 63] += i
        table[i & 255] = row[(i * 7) & 63]
    return total, table


class Speed:
    """Timeline of calibration probes: (time, kernel seconds)."""

    def __init__(self):
        self.probes = []

    def probe(self) -> float:
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            calibration_kernel()
            runs.append(time.perf_counter() - start)
        kernel = statistics.median(runs)
        self.probes.append((time.perf_counter(), kernel))
        return kernel

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the last probe before
        `start` and the first probe after `end`."""
        before = [k for t, k in self.probes if t <= start][-1:]
        after = [k for t, k in self.probes if t >= end][:1]
        return REFERENCE_S / statistics.fmean(before + after)


class Failed(str):
    """A check verdict for an operation that did not complete as promised
    (for example a documented partial output that is missing) but produced
    no wrong number.  It counts in `failed`, not against `correct`."""


@dataclass
class Task:
    """One call into a layer plus the check of its output.

    `check(out, rec)` returns None when the output is right, a `Failed` for a
    failed operation, or any other string for a wrong output.  It may record
    work counts (`rec.count`) and call oracles inside `rec.span`.  `work`
    holds the work counts known before the call.
    """

    task_id: str
    layer: str
    call: Callable
    check: Callable
    work: dict = field(default_factory=dict)


class Recorder:
    """Everything one run measures."""

    def __init__(self):
        self.tracing = False
        self.spans = []  # [name, start, end, parent index, task id]
        self._stack = []
        self._task_id = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []
        self.counts = defaultdict(int)
        self.passes = []  # one dict per pass, see run_pass
        self.setup_times = defaultdict(float)
        self.setup_counts = defaultdict(int)
        self.setup_factor = 1.0  # REFERENCE_S over the kernel time right after set-up
        self.speed = Speed()

    # -- spans and counts --------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._task_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def setup_call(self, layer: str, call: Callable):
        """Run and time one layer call made while building the inputs."""
        start = time.perf_counter()
        with self.span(layer):
            out = call()
        self.setup_times[layer] += time.perf_counter() - start
        self.setup_counts[layer + ".calls"] += 1
        return out

    # -- tasks -------------------------------------------------------------

    def run_task(self, task: Task, timeline: list) -> None:
        """Run one task.  Neither an exception nor a failed check stops the
        run; both are counted."""
        self.speed.probe()
        self._task_id = task.task_id
        self.attempted += 1
        self.count(task.layer + ".calls")
        for name, amount in task.work.items():
            self.count(name, amount)
        with self.span("bench.task"):
            start = time.perf_counter()
            try:
                with self.span(task.layer):
                    out = task.call()
            except Exception as exc:  # a program error fails this task only
                verdict = Failed(f"raised {type(exc).__name__}: {exc}")
            else:
                verdict = None
            end = time.perf_counter()
            if verdict is None:
                try:
                    verdict = task.check(out, self)
                except Exception as exc:  # a broken output can break its check
                    verdict = f"check raised {type(exc).__name__}: {exc}"
        timeline.append((task.task_id, start, end))
        if verdict is not None:
            self.failed += 1
            if not isinstance(verdict, Failed):
                self.wrong += 1
            self.failures.append(f"{task.task_id}: {verdict}")
        self._task_id = None

    def run_pass(self, tasks, traced: bool, label: str = "pass") -> None:
        """Run every task once; `label` tells measured passes ("pass") from
        the traced run's one-off attribution calls."""
        self.tracing = traced
        self.counts = defaultdict(int)
        first_span = len(self.spans)
        timeline = []
        start = time.perf_counter()
        for task in tasks:
            self.run_task(task, timeline)
        raw_wall = time.perf_counter() - start
        self.tracing = False
        self.speed.probe()
        factors = {tid: self.speed.factor(a, b) for tid, a, b in timeline}
        raw = {tid: b - a for tid, a, b in timeline}
        times = {tid: raw[tid] * factors[tid] for tid in raw}
        spans = self.spans[first_span:]
        self.passes.append({
            "label": label,
            "traced": traced,
            "wall": sum(times.values()),
            "raw_wall": raw_wall,
            "spans": len(spans),
            "counts": dict(self.counts),
            "self": self_times(spans, first_span, factors),
            "tasks": times,
            "raw_tasks": raw,
            "timeline": timeline,
        })


def self_times(spans, offset: int, factors: dict) -> dict:
    """Normalised self time per span name: each span's duration minus the
    part covered by its direct children (children never overlap; one thread
    records), times its task's speed factor."""
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _, task) in enumerate(spans, start=offset):
        totals[name] += ((end - start) - child_time[index]) * factors.get(task, 1.0)
    return dict(totals)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct: int) -> float:
    """Inclusive-method percentile (pct in 1..99)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
