"""Keep the benchmark on the least disturbed CPU it may use, and gauge its speed.

On a shared host each virtual CPU alternates, in spells of a few seconds,
between its quiet speed and about 1.45x slower, and the CPUs of one machine
do so independently.  Before each timed step the benchmark times a short
fixed Python loop on every CPU it may use and pins itself to the fastest.
The program under test is untouched; only where it runs is chosen.  With one
CPU, or where affinity cannot be set, nothing is pinned.

The host's speed also drifts over minutes, longer than a run, and then every
step of a run is slower by about the same factor: the fastest repetitions of
the same workload moved between runs by 7-16% (quartile spread over five or
ten runs) while their ratio to the fastest probe of the same run moved by
2-6%.  ``pin_fastest`` therefore
returns the probe time it saw, and the end-to-end times are scaled by
``REFERENCE_PROBE_S`` over the fastest probe of their run: seconds on a host
whose probe takes ``REFERENCE_PROBE_S``.  The probe is benchmark code, so a
change to the program moves the scaled times exactly as much as the raw ones.
"""

from __future__ import annotations

import os
import time


MAX_CPUS = 4     # probing costs about 1 ms per CPU; a few candidates suffice
REFERENCE_PROBE_S = 2.0e-4   # about the probe's fastest time on a quiet 2 GHz virtual CPU


def allowed_cpus() -> list[int]:
    """Up to ``MAX_CPUS`` of the CPUs this process may run on."""
    try:
        return sorted(os.sched_getaffinity(0))[:MAX_CPUS]
    except (AttributeError, OSError):
        return []


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    return time.perf_counter() - start


def pin_fastest(cpus: list[int]) -> float:
    """Pin the calling process to whichever of ``cpus`` runs the probe fastest.

    Returns the fastest probe time on the CPU it is left on.
    """
    if len(cpus) >= 2:
        try:
            timed = []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                timed.append((min(_probe() for _ in range(3)), cpu))
            best = min(timed)
            os.sched_setaffinity(0, {best[1]})
            return best[0]
        except OSError:
            pass
    return min(_probe() for _ in range(3))
