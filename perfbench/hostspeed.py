"""Host-speed correction of measured times.

The benchmark gets a few cores of a shared host.  There the speed of
pure-Python code changes by a fifth or more within a fraction of a second,
and by as much between runs minutes apart.  So a short fixed reference
routine is timed right before every job, every ``PERIOD_S`` of wall time
while the job runs (from a SIGALRM handler, which Python runs between the
job's bytecodes), and right after it.  The job's time, less the time its
samples took, is reported at a nominal host speed:

    measured * mean(REFERENCE_S / reference time of each sample)

that is, the measured time times the host's mean speed over the job relative
to the nominal speed.  A change to the program moves the corrected time as
much as the measured one; a change in host speed moves the job and the
reference together and cancels.  The reference is part of the benchmark and
runs no program code.
"""

import gc
import signal
import statistics
import time

# the reference's time on this host when it is quiet (Python 3.11, 2 CPUs);
# it only sets the scale, so corrected times read as seconds on such a host
REFERENCE_S = 0.0015
# wall time between two samples inside a job
PERIOD_S = 0.05


def reference():
    """Fixed pure-Python work of the program's kind: tuple keys, dicts,
    frozensets and a sort.  It allocates the same objects every call."""
    table = {}
    for i in range(2500):
        key = (i % 97, i % 89, i // 7)
        table[key] = table.get(key, 0) + i
    seen = set()
    for (a, b, _), v in table.items():
        seen.add(frozenset((a, b, v % 13)))
    order = sorted(table, key=lambda k: (k[2], k[1]))
    return len(seen) + len(order)


def measure():
    """Seconds one call of ``reference`` takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Reference samples around and inside one timed stretch of work.

    ``start()`` takes a sample and, with a period, starts the timer;
    ``stop()`` stops it.  ``spent`` and ``spent_cpu`` are the wall and CPU
    seconds the samples inside took, which the caller subtracts from what it
    measured between the two calls.  ``finish()`` takes the last sample and
    returns the factor to the nominal host speed.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self.spent = self.spent_cpu = 0.0
        self._previous = None
        self._sampling = False

    def _sample(self, signum=None, frame=None):
        if self._sampling:     # a sample came due while one was taken
            return
        self._sampling = True
        cpu = time.process_time()
        start = time.perf_counter()
        self.samples.append(measure())
        self.spent += time.perf_counter() - start
        self.spent_cpu += time.process_time() - cpu
        self._sampling = False

    def start(self):
        self.samples.append(measure())
        if self.period:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        """Stop the timer.  A sample already due runs before this returns, so
        it falls inside the caller's measured stretch and inside ``spent``."""
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def finish(self):
        self.samples.append(measure())
        return statistics.fmean(REFERENCE_S / s for s in self.samples)
