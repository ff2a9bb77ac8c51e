"""Shared machinery of the end-to-end benchmark: spans, the interleaved
sampling loop, order statistics, the calibration kernel and process hygiene.

Nothing here knows a workload; `workloads.py` supplies objects with the
small protocol documented on :class:`Workload`.
"""

from __future__ import annotations

import ctypes
import json
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import threading
import time
import traceback
from contextlib import contextmanager
from multiprocessing import resource_tracker

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

#: Scratch space for store directories and default result files.  Inside the
#: benchmark's own directory because a run may write nowhere else.
WORK_DIR = os.path.join(HERE, ".work")


# -- spans ---------------------------------------------------------------------


class Span:
    """One timed call into a layer, as the traced run records it."""

    __slots__ = ("name", "start", "end", "parent", "query", "counts")

    def __init__(self, name, parent, query, counts):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.query = query
        self.counts = counts

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self, index_of) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": index_of.get(id(self.parent)),
            "query": self.query,
            **({"counts": self.counts} if self.counts else {}),
        }


class Tracer:
    """In-memory span recorder around the benchmark's calls into each layer.

    ``span`` always times its body (callers read ``span.seconds`` whether or
    not tracing is on); it *keeps* the span only while ``enabled``.  Spans of
    one request share ``query``; the parent is the enclosing span of the same
    thread.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.query: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, query: int | None = None, **counts):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(
            name,
            stack[-1] if stack else None,
            self.query if query is None else query,
            counts,
        )
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if self.enabled:
                with self._lock:
                    self.spans.append(span)

    def dump(self) -> list[dict]:
        index_of = {id(span): index for index, span in enumerate(self.spans)}
        return [span.to_dict(index_of) for span in self.spans]


# -- statistics ------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def tail(values, pct: float) -> float:
    """Mean of the order statistics from five points below to five points
    above percentile ``pct``.

    On `service_mix` p90 falls in the gap between the latencies of `join`
    (30 % of the mix) and of the two multiway ops (10 %), where the nearest
    rank alone jumps between the two clusters from run to run: over recorded
    100-query blocks its quartile spread was 15.5 %, the window's 10.9 %.
    On the other workloads (11 to 30 samples, p75) the window holds one to
    three samples and the two agree.
    """
    ordered = sorted(values)
    low = int((pct - 5.0) / 100.0 * len(ordered))
    high = math.ceil((pct + 5.0) / 100.0 * len(ordered))
    return float(statistics.fmean(ordered[low:high]))


def quartile_range(values) -> float:
    """Distance between the first and the third quartile; 0 under two values."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return float(quartiles[2] - quartiles[0])


# -- calibration kernel ------------------------------------------------------------


class Window:
    """Filled in when a calibration window closes."""

    scale = 1.0


class Calibration:
    """A fixed two-part kernel that brackets every timed call.

    This box's speed moves by tens of percent within seconds and between
    minutes (neighbouring VMs; CPU time equals wall time while it happens):
    in six minutes of identical `join_balanced` queries the medians of
    consecutive 13-query blocks ranged from 0.23 s to 0.44 s, a quartile
    spread of 16 %, and of `service_mix` blocks 23 % - at or beyond the
    widest bound the benchmark may set.  The kernel repeats the program's
    two instruction mixes on fixed data: a numpy part (random gathers, a
    compare, masked swaps - one bitonic stage) and an interpreter part (row
    tuples, a dict group-by, a JSON round trip - what the db and service
    layers do), so it slows down when the program does.  Its reading is the
    geometric mean of the two parts.

    A timed call is bracketed by two readings and its seconds are multiplied
    by ``REF_S / (mean of the two)``.  ``REF_S`` only fixes the unit: a
    *calibrated second* is a wall second on a machine where the kernel reads
    ``REF_S``, so times are comparable between runs on one machine whatever
    it was doing, and every ratio of two times is unit-free.  The same
    blocks spread 6 % and 8 % in calibrated seconds.  Raw wall medians are
    reported next to the metrics, and ``bench.calib_s`` is the kernel's raw
    median: when that moves between two runs of one commit, the machine
    changed, not the code.
    """

    REF_S = 0.002

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._data = rng.integers(0, 1 << 40, 65536)
        self._lo = rng.permutation(65536)[:32768]
        self._hi = rng.permutation(65536)[:32768]
        self._table = rng.integers(0, 1000, (2000, 3))
        self.samples: list[float] = []

    def _numpy_part(self) -> float:
        start = time.perf_counter()
        work = self._data.copy()
        lo, hi = self._lo, self._hi
        for _ in range(10):
            swap = work[lo] > work[hi]
            src, dst = lo[swap], hi[swap]
            work[src], work[dst] = work[dst].copy(), work[src].copy()
        return time.perf_counter() - start

    def _python_part(self) -> float:
        start = time.perf_counter()
        rows = [tuple(row) for row in self._table.tolist()]
        groups: dict = {}
        for row in rows:
            groups.setdefault(row[0], []).append(row)
        json.loads(json.dumps(rows))
        return time.perf_counter() - start

    def sample(self) -> float:
        """One reading.  Each part runs twice and the faster run counts: a
        preemption spike would otherwise make the bracketed call look fast."""
        numpy_s = min(self._numpy_part(), self._numpy_part())
        python_s = min(self._python_part(), self._python_part())
        reading = math.sqrt(numpy_s * python_s)
        self.samples.append(reading)
        return reading

    @contextmanager
    def window(self):
        """Bracket the body with readings; sets ``window.scale`` on exit."""
        window = Window()
        before = self.sample()
        yield window
        window.scale = self.REF_S / ((before + self.sample()) / 2.0)


# -- the sampling loop -------------------------------------------------------------


class Round:
    """What one round of a timed call hands back to the loop.

    ``times`` are the wall seconds of each answered query, ``failed`` counts
    queries that raised or failed verification, ``wall`` is the wall time of
    the round's timed section (it differs from ``sum(times)`` only when
    clients overlap), ``rows`` the input rows the round consumed and
    ``details`` one dict per answered query with whatever the workload's
    layer counted for it (server seconds, block reads).
    """

    def __init__(self, times, failed=0, wall=None, rows=0, attempted=None, details=()):
        self.times = list(times)
        self.failed = failed
        self.wall = sum(self.times) if wall is None else wall
        self.rows = rows
        self.attempted = len(self.times) if attempted is None else attempted
        self.details = list(details)


class Workload:
    """What the loop needs from a workload (see `workloads.py`).

    ``generate(seed)``  seeded inputs
    ``setup()``         build tables/stores, fork pools, boot servers, one
                        discarded warm-up of every timed call
    ``oracle()``        expected answers (the floor and the vector rows)
    ``measured(tr)``    one round of the measured query, verified -> Round
    ``yardstick(tr)``   the same logical queries straight on the vector
                        engine, verified -> Round
    ``floor()``         the non-oblivious answer (timed in batches)
    ``teardown()``      release everything ``setup`` acquired; safe to repeat
    """

    name = ""
    tail_pct = 75.0  # see README, "Tail"
    yard_every = 1  # run the yardstick every this many rounds
    queries_per_round = 1

    def teardown(self) -> None:
        """Nothing to release unless a workload says otherwise."""


class Samples:
    """Everything one timed phase collected."""

    def __init__(self) -> None:
        #: (round, calibration scale, spans kept) of every measured round.
        self.measured: list[tuple[Round, float, bool]] = []
        self.yard: list[float] = []  # calibrated seconds
        self.yard_raw: list[float] = []
        self.floor: list[float] = []
        self.attempted = 0
        self.failed = 0

    def count(self, round_: Round) -> None:
        self.attempted += round_.attempted
        self.failed += round_.failed

    def rounds(self, kept: bool = False) -> list[tuple[Round, float]]:
        return [(round_, scale) for round_, scale, k in self.measured if k == kept]

    def query(self) -> list[float]:
        """Calibrated seconds of every query measured with spans dropped."""
        return [t * scale for round_, scale in self.rounds() for t in round_.times]

    def query_raw(self) -> list[float]:
        return [t for round_, _ in self.rounds() for t in round_.times]

    def trace_ratios(self) -> list[float]:
        """Per round of a traced run: seconds with spans kept over seconds
        of the same queries with spans dropped.  Raw wall seconds: the two
        passes are adjacent, and two calibration scales would add more noise
        than the drift between them."""
        return [
            sum(kept.times) / sum(dropped.times)
            for (kept, _), (dropped, _) in zip(self.rounds(True), self.rounds(False))
            if kept.times and dropped.times
        ]


def floor_batch(workload, min_seconds: float) -> float:
    """Per-query seconds of the floor, timed over a batch of >= min_seconds."""
    calls = 0
    start = time.perf_counter()
    while True:
        workload.floor()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / (calls * workload.queries_per_round)


def run_rounds(
    workload, tracer: Tracer, calib: Calibration, seconds: float,
    min_queries: int, traced: bool, floor_seconds: float = 0.2,
) -> Samples:
    """The closed loop; it ends once ``seconds`` have passed and
    ``min_queries`` measured queries are in.

    Untraced, a round is the measured query and (every ``yard_every``
    rounds) its yardstick, round-robin, so machine drift hits both equally.
    Traced, a round is the measured query twice - spans kept and spans
    dropped, in alternating order, so ``bench.trace_overhead_frac`` compares
    like with like inside one process - and a batch of the floor.
    """
    samples = Samples()
    phase_start = time.perf_counter()
    rounds = 0

    def attempt(call) -> Round:
        """A query that raises is a failed query, not a failed benchmark."""
        try:
            round_ = call(tracer)
        except Exception:
            traceback.print_exc()
            round_ = Round([], failed=workload.queries_per_round,
                           attempted=workload.queries_per_round)
        samples.count(round_)
        return round_

    while True:
        tracer.query = rounds
        passes = ((True, False), (False, True))[rounds % 2] if traced else (False,)
        for keep in passes:
            tracer.enabled = keep
            with calib.window() as window, tracer.span("round"):
                round_ = attempt(workload.measured)
            samples.measured.append((round_, window.scale, keep))
        tracer.enabled = traced
        if traced:
            with calib.window() as window, tracer.span("floor"):
                per_query = floor_batch(workload, floor_seconds)
            samples.floor.append(per_query * window.scale)
        elif rounds % workload.yard_every == 0:
            with calib.window() as window:
                round_ = attempt(workload.yardstick)
            samples.yard_raw += round_.times
            samples.yard += [t * window.scale for t in round_.times]
        tracer.enabled = False
        rounds += 1
        if (
            rounds * workload.queries_per_round >= min_queries
            and time.perf_counter() - phase_start >= seconds
        ):
            return samples


# -- process hygiene ---------------------------------------------------------------


def shm_segments() -> set[str]:
    """Names of the multiprocessing shared-memory segments present now."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def leaked_segments(before: set[str], grace: float = 2.0) -> int:
    """Segments that appeared since ``before`` and stay.

    Names do not say who owns a segment, so one that belongs to another
    process on the box (the smoke test runs two at a time) gets ``grace``
    seconds to go away; a real leak outlives that.
    """
    deadline = time.perf_counter() + grace
    while True:
        new = shm_segments() - before
        if not new or time.perf_counter() >= deadline:
            return len(new)
        time.sleep(0.1)


def child_pids(trackers: bool = False) -> list[int]:
    """Live (non-zombie) direct children of this process; multiprocessing's
    shared-memory bookkeeper counts only with ``trackers``."""
    pids = []
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        for task in os.listdir(task_dir):
            with open(f"{task_dir}/{task}/children") as handle:
                pids += [int(pid) for pid in handle.read().split()]
    except OSError:
        return [p.pid for p in multiprocessing.active_children()]
    alive = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                zombie = handle.read().rsplit(")", 1)[1].split()[0] == "Z"
            with open(f"/proc/{pid}/cmdline") as handle:
                # The bookkeeper lives until `stop_children`; it is not a
                # leaked worker.
                tracker = "resource_tracker" in handle.read()
            if not zombie and (trackers or not tracker):
                alive.append(pid)
        except OSError:
            pass
    return alive


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    dies (``PR_SET_CHILD_SUBREAPER``), so `stop_children` can wait for a
    grandchild too instead of losing it to init."""
    ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Workers and servers are the workloads' to stop (`child_pids` reports the
    ones they missed).  What is left is multiprocessing's shared-memory
    bookkeeper, which otherwise ends a moment *after* the interpreter: it is
    told to stop here.  Whatever still lives after ``grace`` seconds is
    killed; the loop ends when the kernel says no child is left.
    """
    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe and waits for it
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in child_pids(trackers=True):
                os.kill(child, signal.SIGKILL)
        time.sleep(0.02)


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def machine_context() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
    }
