"""The host's speed over a run, measured with a fixed reference kernel.

A shared host can run the same code up to about 1.6x slower for seconds
or minutes at a time, and a whole run can fall in a slow stretch, so
the fastest or the median of a case's runs still moves by a fifth from
run to run.  The benchmark therefore runs a fixed pure-Python kernel
(a sparse rank over F_5 from bench/ref.py, about 2 ms, the same kind
of dict and int work as twistq) before every case run and, from a CPU
timer, inside long ones, and reports a case run at the reference speed:

    (seconds - kernel time inside it) * REFERENCE_S
        / (median kernel time within WINDOW_S of it)

The kernel is part of the benchmark, not of the program, so a change to
twistq moves the reported times in full; only the host's speed is
divided out.  REFERENCE_S is the kernel's time at the faster speed
level of the two-vCPU host the benchmark was built on, so the reported
times read as seconds on that host at that level.
"""

import bisect
import random
import signal
import statistics
import time

import ref

REFERENCE_S = 0.0017
WINDOW_S = 0.5
# CPU seconds between kernel runs while the benchmark process computes,
# so that a long case has samples inside it: about 2% of its time
PERIOD_S = 0.1
_P = 5
_ROWS = [{j: random.Random(40 * i + j).randrange(_P) for j in range(40)}
         for i in range(30)]


class Meter:
    def __init__(self):
        # (perf_counter at the end, seconds) of each kernel run; one
        # append per run, so a run from the signal handler cannot tear it
        self.runs = []
        self._busy = False
        self.marks = self.kernel = None

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            ref._rank_mod_p(_ROWS, _P)
            end = time.perf_counter()
            self.runs.append((end, end - start))
        except RecursionError:  # the timer fired deep inside a case
            pass
        finally:
            self._busy = False

    def start(self):
        """Also run the kernel every PERIOD_S of this process's CPU time."""
        signal.signal(signal.SIGVTALRM, lambda _sig, _frame: self.sample())
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
        self.marks = [end for end, _ in self.runs]
        self.kernel = [seconds for _, seconds in self.runs]

    def inside(self, start, end):
        """Seconds of kernel runs within [start, end]: the timer's share
        of a case run."""
        lo = bisect.bisect_left(self.marks, start)
        hi = bisect.bisect_right(self.marks, end)
        return sum(self.kernel[lo:hi])

    def scale(self, start, end):
        """Factor from seconds measured in [start, end] to seconds at the
        reference speed."""
        lo = bisect.bisect_left(self.marks, start - WINDOW_S)
        hi = bisect.bisect_right(self.marks, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.kernel[lo:hi]
                                               or self.kernel)
