"""Job timing with a machine-speed probe.

The shared machine this benchmark was written on changes speed by up to 1.5x
from one second to the next and from one run to the next (other tenants on
the same cores).  While a timed stretch runs, a SIGALRM timer fires every
PROBE_S seconds and its handler times a fixed reference kernel.  Each piece
of job time between two probes is divided by the reference time of the probe
that ends it, and the quotients are summed: the cost of the jobs in units of
the reference kernel.  Multiplied by REFERENCE_S it reads as seconds at a
fixed reference speed, which stays put when the machine's speed changes.
"""

import contextlib
import gc
import signal
import time

import numpy as np

# Typical reference-kernel time on the machine the benchmark was written on
# (2-core x86 VM, Python 3.11, numpy 2.4).  Only a scale: it turns
# reference-kernel units into seconds.
REFERENCE_S = 0.003


_GRID = np.arange(48 * 48).reshape(48, 48) % 7 - 3


def reference_kernel():
    """Seconds taken by a fixed mix of work like the workloads' (~3 ms):
    an interpreter loop with dict updates, numpy scalar indexing with set
    inserts (as in nodal extraction), and small numpy vector operations.

    Garbage collection is off while it runs, so the objects a workload keeps
    alive do not change its cost."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(20000):
            acc += i * i
            table[i & 255] = acc
        seen = set()
        for iy in range(47):
            for ix in range(24):
                if _GRID[iy, ix] * _GRID[iy, ix + 1] < 0:
                    seen.add(((ix + 1, iy), (ix + 1, iy + 1)))
        a = np.arange(2000.0)
        for _ in range(10):
            a = np.sqrt(a * a + 1.0)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class PassClock:
    """Times jobs and probes the machine's speed while they run.

    Used as a context manager around a pass (or a set-up).  With `probe`
    set, the handler runs the reference kernel every PROBE_S seconds; probe
    time is not job time.  `job_s` is the wall time of the jobs; `ref_s` is
    their cost at the reference speed (see the module docstring).
    """

    PROBE_S = 0.1

    def __init__(self, probe=True):
        self.probe = probe
        self.job_s = 0.0
        self.ref_s = 0.0
        self.reference_s = []
        self._pending = 0.0   # job time since the last probe
        self._mark = None     # start of the running job stretch, or None
        self._saved = None

    def __enter__(self):
        if self.probe:
            self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.PROBE_S, self.PROBE_S)
        return self

    def __exit__(self, *exc):
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._saved)
            self._close_stretch(self.reference_s[-1] if self.reference_s
                                else reference_kernel())
        return False

    def _close_stretch(self, reference):
        self.ref_s += self._pending / reference * REFERENCE_S
        self._pending = 0.0

    def _take(self):
        """Move the running job stretch into `_pending` and `job_s`."""
        now = time.perf_counter()
        if self._mark is not None:
            self._pending += now - self._mark
            self.job_s += now - self._mark
            self._mark = now

    def _on_alarm(self, signum, frame):
        self._take()
        reference = reference_kernel()
        self.reference_s.append(reference)
        self._close_stretch(reference)
        if self._mark is not None:
            self._mark = time.perf_counter()

    @contextlib.contextmanager
    def job(self):
        # the alarm must not land between reading the clock and updating the
        # totals, or a probe would be counted as job time
        block = [signal.SIGALRM]
        signal.pthread_sigmask(signal.SIG_BLOCK, block)
        self._mark = time.perf_counter()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, block)
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_BLOCK, block)
            self._take()
            self._mark = None
            signal.pthread_sigmask(signal.SIG_UNBLOCK, block)
