"""Measurement helpers shared by the benchmark workloads.

Nothing here imports graphebr: the tail-percentile rule, repeated timing,
operation tallies, the span recorder used by the traced run, and the
environment record are plain Python and numpy, so they can be tested on
their own.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import platform
import resource
import time
from collections import namedtuple

import numpy as np

# Percentiles a tail may be reported at, in tenths of a percent.
_TAIL_LADDER = (500, 900, 990, 999)
MIN_BEYOND = 10


def tail_percentile(num_samples: int):
    """Highest percentile of 50/90/99/99.9 with at least ten samples beyond
    it, or None when there are fewer than twenty samples."""
    best = None
    for tenths in _TAIL_LADDER:
        if num_samples * (1000 - tenths) >= MIN_BEYOND * 1000:
            best = tenths / 10
    return best


def summarize(samples) -> dict:
    """Median, 90th percentile, tail at the tail_percentile rule, mean and
    the sample count."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        return {"n": 0, "p50": 0.0, "p90": 0.0, "tail": 0.0, "tail_pct": None, "mean": 0.0}
    pct = tail_percentile(values.size)
    return {
        "n": int(values.size),
        "p50": float(np.percentile(values, 50)),
        "p90": float(np.percentile(values, 90)),
        "tail": float(np.percentile(values, pct if pct is not None else 100)),
        "tail_pct": pct,
        "mean": float(values.mean()),
    }


def repeat_timed(fn, reps: int):
    """Call fn reps times; returns (last result, list of seconds per call)."""
    times = []
    result = None
    for _ in range(reps):
        result = None  # let the previous result go before the next call
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, times


class OpTally:
    """Counts operations attempted, those that raised one of `errors`, and
    those that returned an incomplete answer."""

    def __init__(self, errors: tuple):
        self.errors = errors
        self.attempted = 0
        self.raised = 0
        self.incomplete = 0

    def call(self, fn, *args, **kwargs):
        """Run one operation; its result, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except self.errors:
            self.raised += 1
            return None

    def mark_incomplete(self):
        self.incomplete += 1

    @property
    def failed(self) -> int:
        return self.raised + self.incomplete

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


Span = namedtuple("Span", "name start end parent op info")


class Recorder:
    """In-memory spans: name, start, end, index of the parent span (-1 at
    the top), the step or query id current when it opened, and an optional
    value a probe took from the call."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    def wrap(self, name: str, fn, before=None, after=None):
        """fn timed as a span; before(*args) runs on entry and after(result)
        on return, and whichever ran last gives the span's info. A call that
        raises records the exception's class name as info."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(rec.spans)
            parent = rec._open[-1] if rec._open else -1
            rec.spans.append(None)
            rec._open.append(slot)
            info = before(*args) if before else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = type(exc).__name__
                raise
            else:
                if after:
                    info = after(result)
                return result
            finally:
                end = time.perf_counter()
                rec._open.pop()
                rec.spans[slot] = Span(name, start, end, parent, rec.op, info)

        return traced

    def write(self, path):
        """One JSON array per line: name, start, end, parent, op, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.info]) + "\n")


def self_times(spans) -> list:
    """Per span, its duration minus the part its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, reach, s.start), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


class Patches:
    """Context manager that rebinds module attributes to traced wrappers.

    targets are (module, attribute, span name, before, after) tuples; the
    original attributes come back on exit.
    """

    def __init__(self, recorder: Recorder, targets):
        self.recorder = recorder
        self.targets = list(targets)
        self._saved = []

    def __enter__(self):
        for module, attr, name, before, after in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.recorder.wrap(name, original, before, after))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library mapped into this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = int(getter())
                break
    return found


def environment() -> dict:
    """Interpreter, library and host facts that a result depends on."""
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
