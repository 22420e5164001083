"""Calibration kernel: a fixed piece of pure-Python work that samples the
machine's speed while a batch runs, so batch times can be rescaled to a
reference speed.

The machine this benchmark runs on is shared. Its speed switches between
states about twice apart, every few hundred milliseconds to seconds, while
CPU time still equals wall time. A kernel timed only before and after a
batch misses the switches inside it, so `Probe` runs the kernel from a
SIGALRM handler every PROBE_INTERVAL_S of wall time during the batch
instead. The batch's reference time is its wall time less the time spent
in the kernel, multiplied by the mean of NOMINAL_S / kernel time over the
samples (the mean of speeds, since samples are evenly spaced in wall time).

The kernel does the kinds of work the analysis does (regex tokenising, dict
counting, building small frozen objects, a recursive walk) and imports
nothing from vulnreach, so a change to vulnreach cannot move it.
"""

from __future__ import annotations

import re
import signal
import statistics
import time
from dataclasses import dataclass

# Median kernel time on the reference machine (see README.md). A reference
# time is what the work would have taken had the kernel taken this long.
NOMINAL_S = 0.00019
PROBE_INTERVAL_S = 0.01

_TOKEN = re.compile(r"""\s+|//[^\n]*|"(?:\\.|[^"\\])*"|\d+\w*|[A-Za-z_$][\w$]*|[{}()\[\];,.=+\-*/<>!&|?:]""")

_TEXT = """
public class Ledger implements Named {
    // running totals per key
    private final Map<String, Integer> counts = new HashMap<>();
    public int tally(String key, int delta) {
        int total = counts.getOrDefault(key, 0);
        for (String e : entries) {
            if (e.startsWith(key) && e.length() > LIMIT) { total += delta * 3; }
        }
        counts.put(key, total);
        return describe("ledger " + key + " -> " + total);
    }
}
"""


@dataclass(frozen=True)
class _Node:
    text: str
    kids: tuple


def _tree(tokens: list[str], i: int, close: str) -> tuple[_Node, int]:
    kids = []
    while i < len(tokens):
        t = tokens[i]
        i += 1
        if t == close:
            break
        if t in "({[":
            node, i = _tree(tokens, i, {"(": ")", "{": "}", "[": "]"}[t])
            kids.append(node)
        else:
            kids.append(_Node(t, ()))
    return _Node(close, tuple(kids)), i


def _walk(node: _Node, seen: set[str]) -> int:
    seen.add(node.text)
    return 1 + sum(_walk(k, seen) for k in node.kids)


def kernel() -> int:
    """One unit of calibration work; returns a checksum of it."""
    tokens = [m.group() for m in _TOKEN.finditer(_TEXT) if not m.group().isspace()]
    counts: dict[str, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    root, _ = _tree(tokens, 0, "")
    seen: set[str] = set()
    return _walk(root, seen) + len(counts) + len(seen)


_CHECKSUM = kernel()


def time_kernel() -> float:
    """Wall seconds one kernel run takes now."""
    start = time.perf_counter()
    result = kernel()
    elapsed = time.perf_counter() - start
    if result != _CHECKSUM:
        raise RuntimeError("calibration kernel returned a different checksum")
    return elapsed


class Probe:
    """Context manager that times the kernel every PROBE_INTERVAL_S while
    active. Python runs the handler in the main thread between bytecodes,
    and while the process waits on a child, so samples cover the whole
    interval. The timer is not inherited by child processes."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        # The handler interrupts the workload with cold caches; a first,
        # untimed run warms them so the timed run measures the core's speed.
        start = time.perf_counter()
        kernel()
        self.samples.append(time_kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Probe":
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than one interval: sample once now
            self.samples.append(time_kernel())

    def reference(self, wall_s: float) -> float:
        """Reference seconds of the work done in wall_s seconds of probing:
        wall time less the probe's own, times the mean of NOMINAL_S over
        the kernel times (the mean speed, as samples are evenly spaced in
        wall time)."""
        speed = statistics.fmean(NOMINAL_S / k for k in self.samples)
        return max(wall_s - self.spent, 0.0) * speed
