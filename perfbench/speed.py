"""Host-speed calibration for a shared, noisy machine.

On a shared host the CPU's effective speed can drift by tens of percent
over seconds to minutes, for every kind of Python work alike (CPU time
drifts with wall time), so raw wall times of the same request disagree
between runs.  A fixed reference kernel (stdlib only, never the program) is timed every
PROBE_INTERVAL_S between operations.  Each operation's wall time is scaled
by REF_NOMINAL_S over the median reference time around it; reported times
are therefore "at the host speed where the reference kernel takes
REF_NOMINAL_S".  The benchmark records raw times and reference medians
beside the scaled ones.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List

REF_NOMINAL_S = 2.5e-3
PROBE_INTERVAL_S = 0.02
# Reference timings taken on each side of an operation.
WINDOW = 2


@dataclass(frozen=True)
class _Point:
    x: Fraction
    y: float


def reference_kernel() -> int:
    """Fixed stdlib work shaped like the program's (about 2.5 ms): argparse,
    small and 30-digit Fraction arithmetic, frozen dataclasses, float math
    and JSON."""
    parser = argparse.ArgumentParser(prog="reference")
    command = parser.add_subparsers(dest="command").add_parser("run")
    command.add_argument("--values")
    command.add_argument("--mode", choices=("a", "b"), default="a")
    command.add_argument("--n", type=int, default=3)
    args = parser.parse_args(["run", "--values", "1/3,2/5,7/9", "--n", "4"])
    values = [Fraction(v) for v in args.values.split(",")]
    big = Fraction(10**30 + 7, 10**29 + 3)
    acc = Fraction(0)
    for k in range(12):
        acc = acc * big / (values[k % 3] + k) + values[(k + 1) % 3]
    for k in range(1, 60):
        acc += Fraction(k, k + 3) * Fraction(3, 7) - Fraction(1, k * k + 1)
    points = [_Point(Fraction(k, 3), k * 0.5) for k in range(60)]
    total = sum(p.y for p in points) + math.sqrt(float(acc))
    for k in range(1, 400):
        total += math.sqrt(k) * 1.5 / k
    doc = {str(k): [f"{p.x.numerator}/{p.x.denominator}", p.y] for k, p in enumerate(points)}
    table = {str(k): (k, k * 2.5) for k in range(200)}
    return len(json.dumps(doc, indent=2)) + len(json.dumps(table)) + int(total)


class SpeedProbe:
    """Reference-kernel timings taken during one pass, in time order."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._last_end = -math.inf

    def probe(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self._last_end = end

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last_end >= PROBE_INTERVAL_S:
            self.probe()

    def factor_at(self, when: float) -> float:
        """Scale for a wall time measured at ``when`` (needs one probe)."""
        j = bisect.bisect(self.starts, when)
        window = self.durations[max(0, j - WINDOW) : j + WINDOW]
        return REF_NOMINAL_S / statistics.median(window)

    def median(self) -> float:
        return statistics.median(self.durations)
