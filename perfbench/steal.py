"""Hypervisor steal time per CPU, sampled through a run.

On a shared virtual machine the hypervisor now and then runs another
guest on the physical core behind one of this guest's vCPUs.  The guest
kernel counts that time as *steal* per CPU (the eighth column of the
``cpuN`` lines of ``/proc/stat``, in clock ticks).  A run of 30-40 s saw
from 0 to 10 s of it per CPU, which moved every wall-clock metric by up
to a quarter from one run to the next although the program did the
same work.  The time metrics therefore leave out the steal that fell on
the CPU doing the work while they ran: :meth:`StealClock.net` is an
interval's wall time minus that CPU's steal in it.

Steal is reported in whole ticks (10 ms), so a sampler thread reads
``/proc/stat`` every :data:`INTERVAL_S` and the steal inside an interval
is interpolated from the samples around it.  That is exact to a tick;
for an interval shorter than a tick (a cache hit) it is the local steal
rate times the interval, wrong for the one interval but right on average
over many, which is what a median over hundreds of them needs.  Where
``/proc/stat`` has no steal column, steal reads 0.
"""

from __future__ import annotations

import bisect
import os
import threading
from time import perf_counter

#: Seconds between two reads of ``/proc/stat``.
INTERVAL_S = 0.01
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def read_steal() -> dict[int, float]:
    """Cumulative steal in seconds, by CPU number."""
    steal = {}
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                if line.startswith("cpu") and line[3].isdigit():
                    fields = line.split()
                    steal[int(fields[0][3:])] = int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0
    except OSError:
        pass
    return steal


class StealClock:
    """Samples per-CPU steal on a thread for the life of a ``with`` block."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[dict[int, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="steal-clock", daemon=True)

    def __enter__(self) -> "StealClock":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _sample(self) -> None:
        steal = read_steal()
        self.times.append(perf_counter())
        self.samples.append(steal)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def _at(self, cpu: int, t: float) -> float:
        """Cumulative steal of ``cpu`` at ``t``, linearly interpolated."""
        k = bisect.bisect_right(self.times, t)
        if k == 0:
            return self.samples[0].get(cpu, 0.0)
        if k == len(self.times):
            return self.samples[-1].get(cpu, 0.0)
        t_a, t_b = self.times[k - 1], self.times[k]
        s_a, s_b = self.samples[k - 1].get(cpu, 0.0), self.samples[k].get(cpu, 0.0)
        return s_a + (s_b - s_a) * (t - t_a) / (t_b - t_a)

    def stolen(self, t0: float, t1: float, cpus) -> float:
        """Mean steal over ``cpus`` in ``[t0, t1]``, in seconds."""
        cpus = list(cpus)
        return sum(self._at(c, t1) - self._at(c, t0) for c in cpus) / len(cpus)

    def net(self, t0: float, t1: float, cpus) -> float:
        """Wall time of ``[t0, t1]`` without the steal on ``cpus``."""
        return max(0.0, (t1 - t0) - self.stolen(t0, t1, cpus))
