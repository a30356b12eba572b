"""Spans, host-speed probes, the clock of timed loops and summary statistics.

An op records its layer boundaries as laps: ``(name, perf_counter_ns)``
pairs taken in order. The interval ending at a lap is a child span of the
op, so an op of n laps yields one root span and n-1 children that share
the op's trace id. Untraced runs pass ``marks=None`` and record nothing.
"""

from __future__ import annotations

import json
import resource
import socket
import statistics
import threading
from array import array
from statistics import median
from time import perf_counter_ns


def lap(marks: list | None, name: str) -> None:
    if marks is not None:
        marks.append((name, perf_counter_ns()))


class SpanLog:
    """Spans kept in memory and written out once, after the run."""

    def __init__(self):
        self.rows: list[tuple] = []

    def add_op(self, trace_id: str, op_name: str, marks: list) -> None:
        """Store the root span of one op and one child span per lap."""
        start = marks[0][1]
        self.rows.append((trace_id, 0, None, op_name, start, marks[-1][1]))
        for span_id, ((_, t0), (name, t1)) in enumerate(zip(marks, marks[1:]), 1):
            self.rows.append((trace_id, span_id, 0, name, t0, t1))

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for (_, _, _, n, start, end) in self.rows if n == name]

    def write(self, path) -> None:
        keys = ("trace", "span", "parent", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def percentile(values, pct: int) -> float:
    """pct-th percentile (1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[pct - 1]


def time_calls(fn, args_list, unit_ns: float) -> float:
    """Median wall time of fn(*args) over args_list, in units of unit_ns."""
    times = []
    for args in args_list:
        t0 = perf_counter_ns()
        fn(*args)
        times.append(perf_counter_ns() - t0)
    return median(times) / unit_ns


# The host's speed drifts by up to ~2x under co-tenant load, and not all
# code slows alike: interpreter-bound code (the datapath models) suffers
# most, big-integer arithmetic least, and threaded socket code also
# suffers when the second vCPU is busy. Timed work is therefore cut into
# segments, and before each one the probe that matches the workload's
# dominant kind of work is timed. A segment's times are scaled by
# speed = REF_NS / probe time, giving wall-clock on a host on which the
# probe takes REF_NS (about this host's speed when it is quiet).
SEGMENT_NS = 100_000_000
_PROBE_MODULUS = (1 << 1023) + 1155


def _add(a: int, b: int) -> int:
    return a + b


def interp_probe() -> int:
    acc = 0
    for i in range(3000):
        acc = _add(acc, i) & 0xFFFF
    return acc


def bigint_probe() -> int:
    a = 3
    for _ in range(100):
        a = a * a % _PROBE_MODULUS
    return a


def handoff_probe() -> None:
    """One-byte round trips between two threads over a socket pair: thread
    wake-ups and socket calls on both vCPUs, as in a loopback TCP round."""
    a, b = socket.socketpair()
    with a, b:
        def echo():
            for _ in range(50):
                b.sendall(b.recv(1))

        peer = threading.Thread(target=echo)
        peer.start()
        try:
            for _ in range(50):
                a.sendall(b"x")
                a.recv(1)
        finally:
            peer.join()


PROBES = {
    "interp": (interp_probe, 400_000),
    "bigint": (bigint_probe, 400_000),
    "handoff": (handoff_probe, 750_000),
}


def host_speed(probe: str) -> float:
    """REF_NS over the median of three timings of the probe: 1.0 on the
    reference host, 0.5 on one running at half its speed."""
    fn, ref_ns = PROBES[probe]
    times = []
    for _ in range(3):
        t0 = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - t0)
    return ref_ns / median(times)


class Segment:
    """Ops timed back to back after one speed probe."""

    def __init__(self, speed: float):
        self.speed = speed
        self.elapsed_ns = 0
        self.latencies_ns = array("q")


class Meter:
    """Clock of a single-threaded closed loop, run in segments.

    A segment ends after SEGMENT_NS or when the loop pauses (to check the
    ops done so far); the next starts with a fresh speed probe. Time while
    paused or probing is not counted, and the loop runs until the counted
    time reaches the budget.
    """

    def __init__(self, seconds: float, probe: str):
        self.budget_ns = int(seconds * 1e9)
        self.probe = probe
        self.elapsed_ns = 0
        self.segments: list[Segment] = []
        self._start = None

    def running(self) -> bool:
        """Start or continue the clock; False once the budget is spent."""
        if self._start is not None:
            spent = perf_counter_ns() - self._start
            if spent >= SEGMENT_NS or self.elapsed_ns + spent >= self.budget_ns:
                self.pause()
        if self._start is None:
            if self.elapsed_ns >= self.budget_ns:
                return False
            self.segments.append(Segment(host_speed(self.probe)))
            self._start = perf_counter_ns()
        return True

    def record(self, latency_ns: int) -> None:
        self.segments[-1].latencies_ns.append(latency_ns)

    def pause(self) -> None:
        if self._start is not None:
            spent = perf_counter_ns() - self._start
            self.segments[-1].elapsed_ns += spent
            self.elapsed_ns += spent
            self._start = None
