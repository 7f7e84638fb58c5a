"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same operation can take 1.8x longer for tens of
seconds at a time while CPU time keeps tracking wall time: neighbours slow
every instruction, so repeating operations does not average it away.  A
kernel with the solver's instruction mix (a Python-level Gram-Schmidt over
small numpy vectors plus a few LAPACK solves) slows by about the same factor.
A side process samples it on the other core every ``INTERVAL_S`` while the
operations run, so even a 20-second operation is matched with the speed
during that operation.  Sampled there it tracks the operations more closely
than sampled between or inside them in the same process: over 42 repeats of
one ``case_sweep`` operation the per-operation spread (interquartile range
over median) was 0.39-0.44 raw, 0.11-0.20 scaled by in-process samples and
0.04-0.10 scaled by side-process samples.  The kernel lives here, outside
``cyclemarket``, so no change to the package moves it.

A wall time ``t`` over which the kernel took ``r`` seconds on average is
reported as ``t * REF_S / r``: seconds at the machine speed where the kernel
takes ``REF_S``, about its median in the side process on the 2-core Xeon
host the baselines come from.

    python3 perfbench/refspeed.py     # the side process; stops when stdin closes
"""

import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

REF_S = 0.018
REPEATS = 3
INTERVAL_S = 0.5
STOP_TIMEOUT_S = 10

_rng = np.random.default_rng(20240307)
_M = _rng.standard_normal((120, 120))
_M = _M @ _M.T + 120.0 * np.eye(120)
_V = _rng.standard_normal((60, 120))


def kernel():
    acc = 0.0
    for row in _V[:20]:
        acc += float(np.linalg.solve(_M, row)[0])
    basis = []
    for row in _V:
        v = row.copy()
        for b in basis:
            v = v - (b @ v) * b
        norm = float(np.sqrt(v @ v))
        if norm > 1e-9:
            basis.append(v / norm)
    return acc + len(basis)


def sample():
    """Median of a few kernel timings, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedTrack:
    """Kernel samples from a side process, matched to intervals of this one.

    Use as a context manager around the timed work; ``scale`` is valid after
    it exits.  ``time.perf_counter`` reads the system-wide monotonic clock,
    so both processes stamp samples on one time line.
    """

    def __enter__(self):
        self.at, self.seconds = [], []
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._first = self._proc.stdout.readline()  # the first sample precedes any work
        return self

    def __exit__(self, *exc):
        time.sleep(1.5 * INTERVAL_S)  # one more sample after the last operation
        try:
            out, _ = self._proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        for line in (self._first + out).splitlines():
            at, seconds = line.split()
            self.at.append(float(at))
            self.seconds.append(float(seconds))
        if not self.seconds:
            raise RuntimeError("the reference-speed sampler produced no samples")
        return False

    def scale(self, start, end):
        """Factor that turns a wall time over [start, end] into reference seconds.

        Averages the samples inside the interval and the nearest one on each side.
        """
        inside = [r for t, r in zip(self.at, self.seconds) if start <= t <= end]
        before = [r for t, r in zip(self.at, self.seconds) if t < start]
        after = [r for t, r in zip(self.at, self.seconds) if t > end]
        return REF_S / statistics.fmean(inside + before[-1:] + after[:1])

    def median(self):
        return statistics.median(self.seconds)


def _serve():
    """Print ``<midpoint> <seconds>`` per sample until stdin closes."""
    while True:
        start = time.perf_counter()
        seconds = sample()
        print(f"{(start + time.perf_counter()) / 2!r} {seconds!r}", flush=True)
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready and not sys.stdin.read(1):
            return


if __name__ == "__main__":
    _serve()
