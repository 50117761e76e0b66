"""Yardsticks: fixed pieces of work that measure the machine's speed of the
moment, so that timings can be scaled to a steady machine.

On a small shared host the speed of a process drifts: over 150 seconds on
2 vCPUs, the same exact operation (check-biortho plus expand at N = 10) had
a median of 114 ms in one 15-second window and 183 ms in another, in CPU
time as in wall time.  A fixed loop of `Fraction` arithmetic timed next to
each operation slowed down with it: divided by it, the operation read
between 68.6 and 69.8 units in every window.

Every timed operation is therefore followed by a yardstick sample and
reported as

    raw seconds * nominal / (median of the samples near it),

that is, as the time it would take on a machine where the yardstick takes
its `nominal` time.  The yardsticks are the benchmark's own code, fixed and
independent of the seed, and never call the library, so a change to the
library moves the scaled times as it moves the raw ones.  Raw times are kept
in the report.  Importing the library does not follow the drift (a fresh
interpreter's import took 145-217 ms while the yardstick ran between 1.7
and 3.2 ms, unrelated), so import time is never scaled.

- `FractionYardstick` (in-process workloads): the sum-route and Lagrange
  references of `reference.py` on fixed rational data, plain `Fraction`
  arithmetic like the exact pipelines.
- `InterpreterYardstick` (cli-mix): a bare child interpreter,
  `python -I -S -c pass`, started like the CLI's children.  In-process work
  does not track the speed of starting a process; this does.  Without `site`
  it takes 15 ms instead of about 65, so the 30-second run keeps room for
  about a hundred calls.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

import reference
from inputs import distinct_rationals, probe_points, rational


class FractionYardstick:
    """About 3 ms of exact rational arithmetic on fixed data."""

    nominal_s = 3e-3
    every = 1

    def __init__(self):
        rng = random.Random("yardstick")
        self.nodes = distinct_rationals(rng, 9)
        self.values = [rational(rng) for _ in range(9)]
        self.probes = probe_points(rng, self.nodes)
        self.sample()  # the first call pays one-off costs

    def sample(self) -> float:
        start = time.perf_counter()
        reference.family_reference(self.nodes, self.values, self.probes)
        return time.perf_counter() - start


class InterpreterYardstick:
    """One bare child interpreter without `site`, about 15 ms, taken after
    every other operation so that it costs a fortieth of a run."""

    nominal_s = 15e-3
    every = 2
    timeout_s = 60

    def __init__(self, env, cwd):
        self.env, self.cwd = env, cwd
        self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], env=self.env,
                       cwd=self.cwd, capture_output=True, timeout=self.timeout_s, check=True)
        return time.perf_counter() - start


# Samples on each side of an operation whose median gives its local speed.
WINDOW = 4


def scale(yardstick, ticks) -> float:
    """The factor that takes a raw time measured amid these samples to the
    yardstick's nominal machine."""
    return yardstick.nominal_s / statistics.median(ticks)


def scale_each(yardstick, ticks, timed) -> list:
    """Scale each (raw seconds, index of the first sample after it) by the
    median of the WINDOW samples on each side of it, which one stray sample
    cannot move."""
    return [took * scale(yardstick, ticks[max(0, k - WINDOW):k + WINDOW])
            for took, k in timed]
