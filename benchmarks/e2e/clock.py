"""The reference clock: timings at the reference speed of a box whose speed moves.

The box is shared: the same pass of ``triangular_sweep`` read 9.2 s and 17.1 s
of wall half an hour apart, and a fixed pure-Python loop beside it slowed by
the same ratio.  No bound a metric can carry survives that, so the timed
passes report every wall divided by how much slower than a reference the box
ran a calibration loop right beside (and inside) the timed op.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

#: What ``calibration_loop_ms`` reads on the box the benchmark was written on
#: while nothing else runs there.
CALIBRATION_REFERENCE_MS = 24.0
#: Seconds between two calibration loops while ops are timed (a tenth of the wall).
CALIBRATION_INTERVAL_S = 0.25
#: An op is converted with the loops that ran up to this long before or after it.
CALIBRATION_WINDOW_S = 0.25


def calibration_loop_ms() -> float:
    """Wall of a fixed loop of exact-rational sums and dict writes.

    It is the interpreter work the solver stack is made of and touches nothing
    of ``repro``, so it tells how fast the box is, never how fast the program is.
    """
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for index in range(14_000):
        total += Fraction(index, 7)
        seen[index & 255] = total.numerator & 1023
    return (time.perf_counter() - start) * 1e3


class ReferenceClock:
    """Converts measured wall into wall at the reference speed of the box.

    While ops are timed an interval timer runs the calibration loop on the
    main thread every quarter second, inside the ops.  An op's wall loses the
    loops that ran inside it and is divided by how much slower than the
    reference the loops around it ran.  Measured on three compiles repeated 40
    times: quartile distance 9.1 % of the median as timed, 5.5 % with loops
    before and after each op only, 2.8 % with this.
    """

    def __init__(self) -> None:
        self.loops: list[tuple[float, float]] = []  # (perf_counter at start, ms)
        for _ in range(4):
            self.tick()
        signal.signal(signal.SIGALRM, self.tick)

    def tick(self, *_) -> None:
        self.loops.append((time.perf_counter(), calibration_loop_ms()))

    def slowdown(self) -> float:
        """How much slower than the reference the box ran so far."""
        return statistics.fmean(ms for _, ms in self.loops) / CALIBRATION_REFERENCE_MS

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.tick()

    @contextmanager
    def held(self):
        """No loop starts in here: one would run while the server works on the request."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def convert(self, ops: list[dict]) -> None:
        """From each op's ``start`` and ``wall_ms``: ``raw_ms`` without the loops, ``ms`` at reference speed."""
        for op in ops:
            start, end = op["start"], op["start"] + op["wall_ms"] / 1e3
            inside = sum(ms for at, ms in self.loops if start <= at < end)
            around = [
                ms
                for at, ms in self.loops
                if start - CALIBRATION_WINDOW_S <= at < end + CALIBRATION_WINDOW_S
            ] or [min(self.loops, key=lambda loop: abs(loop[0] - start))[1]]  # a held-up timer
            op["raw_ms"] = op["wall_ms"] - inside
            op["ms"] = op["raw_ms"] * CALIBRATION_REFERENCE_MS / statistics.fmean(around)
