"""Host-speed calibration: a fixed probe sampled while an operation runs.

The host is shared and its speed drifts, by tens of percent over seconds to
minutes.  So while an operation is timed, a ``SIGALRM`` timer interrupts it
every ``PERIOD_S`` of wall time and runs ``probe``, a fixed pure-Python
loop that calls nothing in ttldelay, and times it.  The probe's time is
taken out of the operation's wall time, and what is left is divided by the
probe's mean time during the operation and multiplied by its reference
time: the seconds the operation would take on a host where the probe runs
at its reference speed.  A change to the program moves the operation and
not the probe, so it moves the normalised time in full.

Probes sampled during the operation follow the host's speed through it,
where kernels timed just before and after a long operation could not.

Python runs signal handlers between bytecodes, so a probe falls due while
a long numpy call runs and is taken when it returns; probes are fewer
there, not wrong.
"""

import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.05
# Seconds per probe on the reference host (2 vCPU KVM guest, Intel Xeon,
# Python 3.11.7) when it is quiet.  It only sets the scale of normalised
# times, so that those read as seconds on that host.
REFERENCE_S = 0.0012


def probe():
    """The fixed unit of work whose time stands for the host's speed."""
    table = {}
    x = 0.0
    for i in range(8000):
        x += (i * 0.5) % 7.0
        table[i & 1023] = x
    return x


class Sampler:
    """Runs ``probe`` every ``period_s`` of wall time while ``running``."""

    def __init__(self, period_s=PERIOD_S, clock=time.perf_counter):
        self.period_s = period_s
        self.clock = clock
        self.samples = []  # (start, seconds) of each probe

    def _on_alarm(self, signum, frame):
        start = self.clock()
        probe()
        self.samples.append((start, self.clock() - start))

    @contextmanager
    def running(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def split(self, start, end):
        """The interval ``start``..``end`` -> (seconds not in probes, mean probe s).

        Only probes that began inside the interval count.  With none
        inside, one probe timed now gives the probe time.
        """
        inside = [s for t, s in self.samples if start <= t < end]
        probe_s = statistics.mean(inside) if inside else probe_seconds()
        return end - start - sum(inside), probe_s


def probe_seconds(clock=time.perf_counter):
    """Seconds of one probe run now."""
    start = clock()
    probe()
    return clock() - start


def scale(seconds, probe_s):
    """Wall seconds at a mean probe time -> seconds at the reference speed."""
    return seconds / probe_s * REFERENCE_S


def warm_up(calls=20):
    """Run the probe a few times, so the first sampled probes are not cold."""
    for _ in range(calls):
        probe()
