"""CPU-speed probe: how fast the CPU ran while a block of code ran.

The vCPUs of a shared host flip between full speed and about 1.5x slower
many times a second, each on its own, and the share of slow time drifts
over minutes; that share, not the program, then sets most of the spread
between runs.  :func:`speed_probes` samples it where the measured code
runs, and :func:`slowdown` turns the samples into the factor by which the
benchmark divides a measured time.

Imports only the standard library modules it needs, because the set-up
measurement runs it in a fresh interpreter ahead of the imports it times.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Any, Iterator, List, Sequence

PROBE_PERIOD = 0.1  # wall seconds between two probes
# Reference time of one probe: _probe_loop at full speed on the host this
# was tuned on (2-vCPU Intel Xeon, 2.0 GHz, Python 3.11).  Corrected times
# are what the code would take on a CPU that runs the probe this fast.
PROBE_REFERENCE_S = 0.00115


def _probe_loop() -> int:
    """The fixed work one probe times (about a millisecond)."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


@contextmanager
def speed_probes() -> Iterator[List[float]]:
    """Every ``PROBE_PERIOD`` s of wall time while the block runs, a SIGALRM
    handler times :func:`_probe_loop` (this benchmark's code, never the
    program's) in this process and appends the time to the yielded list.
    """
    samples: List[float] = []

    def probe(signum: int, frame: Any) -> None:
        # CPU time, not wall: a probe preempted by the op's own worker
        # processes would otherwise count their load as the host's.
        t0 = time.thread_time()
        _probe_loop()
        samples.append(time.thread_time() - t0)

    old = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def slowdown(probes: Sequence[float]) -> float:
    """How much slower than ``PROBE_REFERENCE_S`` the probes ran (1.0 when
    nothing was probed)."""
    return sum(probes) / len(probes) / PROBE_REFERENCE_S if probes else 1.0
