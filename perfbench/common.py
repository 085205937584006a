"""Run context shared by the workloads: operation accounting against the
oracles, spans, memory high-water mark and timing helpers."""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

import numpy as np


class Tracer:
    """Spans kept in memory and written out when the run ends. A span is
    (name, start, end, parent, trace id, counts); spans of one request share a
    trace id. Disabled tracers hand out one shared null context."""

    _NULL = contextlib.nullcontext()

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace = 0

    def new_trace(self) -> None:
        self._trace += 1

    def span(self, name: str, **counts):
        if not self.enabled:
            return self._NULL
        return self._span(name, counts)

    @contextlib.contextmanager
    def _span(self, name: str, counts: dict):
        rec = {"name": name, "trace": self._trace,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **s}) + "\n")


class PeakMemory:
    """Sum over the driver and its descendant processes (the Ray session) of
    each process's resident-set high-water mark (VmHWM). Sampled at
    operation boundaries; a process seen once keeps its peak after it exits."""

    def __init__(self):
        self.peaks: dict[int, int] = {}

    @staticmethod
    def _hwm_kb(pid: int) -> int | None:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            return None
        return None

    def sample(self) -> None:
        import psutil  # shipped with Ray; importable once ray is imported

        me = psutil.Process()
        try:
            pids = [me.pid] + [c.pid for c in me.children(recursive=True)]
        except psutil.Error:
            pids = [me.pid]
        for pid in pids:
            kb = self._hwm_kb(pid)
            if kb is not None and kb > self.peaks.get(pid, 0):
                self.peaks[pid] = kb

    def total_mb(self) -> float:
        self.sample()
        return sum(self.peaks.values()) / 1024.0


class Context:
    """State of one run: where it writes, its seed and window, the operation
    counts, the metrics and the samples taken between operations."""

    def __init__(self, *, work: str, seed: int, seconds: float,
                 trace: bool, nproc: int, process_start: float):
        self.work, self.seed = work, seed
        self.seconds, self.nproc = seconds, nproc
        self.process_start = process_start
        self.tracer = Tracer(trace)
        self.memory = PeakMemory()
        self.counting = False  # warm-up operations are checked, not counted
        self.attempted = 0
        self.failed = 0
        self.failed_by_fault: dict[str, int] = {}
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.setup_s: float | None = None
        self._window_start: float | None = None
        self.calibration: list[float] = []

    def checkpoint(self) -> None:
        """Between operations: sample memory and the CPU's current speed
        (best of three loops)."""
        self.memory.sample()
        self.calibration.append(min(calibration_loop() for _ in range(3)))

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    # ---- accounting ----

    def op(self, ok: bool, what: str, fault: str | None = None) -> bool:
        """One attempted operation. A wrong answer fails the run unless it is
        a named known fault, which is counted in `failed` instead."""
        self.attempted += self.counting
        if not ok:
            if fault is not None:
                if self.counting:
                    self.failed += 1
                    self.failed_by_fault[fault] = self.failed_by_fault.get(fault, 0) + 1
            else:
                self.errors.append(what)
                print(f"[perfbench] WRONG: {what}", file=sys.stderr)
        return ok

    def require(self, ok: bool, what: str) -> None:
        """A property of set-up output (not a timed operation)."""
        if not ok:
            self.errors.append(what)
            print(f"[perfbench] WRONG: {what}", file=sys.stderr)

    # ---- timing ----

    def start_window(self) -> None:
        """End of set-up: from here on the run measures."""
        self.setup_s = time.time() - self.process_start
        self.counting = True
        self.checkpoint()
        self._window_start = time.perf_counter()

    def rounds(self):
        """Round numbers for the measured window: another round starts while
        one as long as the last still ends inside the window; at least one."""
        n, last = 0, 0.0
        while n == 0 or self.window_elapsed() + last <= self.seconds:
            t = time.perf_counter()
            yield n
            last = time.perf_counter() - t
            n += 1

    def window_elapsed(self) -> float:
        return time.perf_counter() - self._window_start


def calibration_loop() -> float:
    """CPU seconds this thread spends on a fixed piece of interpreter and
    NumPy work: the speed the host gives this run's CPU at the moment (it
    moves by tens of percent within seconds on a shared host). Thread CPU
    time, not wall time, so that other processes of the session running on
    the same CPU do not slow the loop: background work that a program change
    adds shows in the metrics and not in the factor that rescales them."""
    t = time.thread_time()
    x = 0
    for i in range(20000):
        x += i * i
    a = np.arange(30000, dtype=np.int64)
    np.sort(a[::-1] ^ 0x5555)
    return time.thread_time() - t


def median(xs) -> float:
    return float(np.median(np.asarray(xs, np.float64)))


def percentile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, np.float64), q))


def timed(fn, *a, **kw):
    t = time.perf_counter()
    out = fn(*a, **kw)
    return out, time.perf_counter() - t


def dir_bytes(path: str, sub: str | None = None) -> int:
    """Total size of files under path (only directories named `sub` if given)."""
    total = 0
    for dirpath, _, files in os.walk(path):
        if sub is not None and os.path.basename(dirpath) != sub:
            continue
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def same_ranking(ids, scores, want_ids, want_scores) -> bool:
    return (np.array_equal(np.asarray(ids, np.int64), want_ids)
            and np.array_equal(np.asarray(scores, np.float64).astype(np.float32),
                               want_scores))


def non_increasing(scores) -> bool:
    s = np.asarray(scores, np.float64)
    return bool(np.all(s[1:] <= s[:-1])) if s.size > 1 else True
