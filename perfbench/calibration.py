"""Calibration kernel: how fast the host runs while a list is timed.

The host's speed drifts by tens of percent over seconds (other tenants
share its cores), which no number of repeats averages out, and the drift
differs from core to core.  This kernel shares no code with the package;
it mixes an interpreter loop with numpy work on small arrays, the two kinds
of work that dominate the workloads, so it slows with the host the way they
do.  run.py scales a wall time by REF_S / (CPU seconds of one kernel pass
on the same core at the same time): reference seconds.

A one-thread workload is sampled in its own thread, every SAMPLE_S, from
a SIGALRM handler, so the samples come from the core the work runs on and
cover the whole list (about 1% overhead).  A multi-thread workload's wall
time is left as measured: its threads share every core with the other
tenants and with each other's lock traffic, and neither a sampler in its
waiting main thread nor worker processes calibrating before and after the
list tracked it (both made the run-to-run spread worse).
"""

import signal
import statistics
import time

import numpy as np

REF_S = 6.0e-4          # CPU seconds per pass on a 2-vCPU Intel Xeon host
                        # at full speed: the unit of reference seconds
SAMPLE_S = 0.05         # sampling interval of the in-thread sampler

_rng = np.random.default_rng(12345)
_A0 = _rng.random((15, 256))
_W = _rng.random(256)


def one_pass():
    """CPU seconds of one kernel pass."""
    c0 = time.thread_time()
    acc = 0
    for i in range(4000):
        acc += (i * i) % 7
    a = _A0
    for _ in range(6):
        b = np.exp(-3.0 * a) * a
        a = np.concatenate([b[:, 128:], b[:, :128]], axis=1) + 0.5 * a
        acc += float((a * _W).sum(axis=1).max())
    return time.thread_time() - c0


def burst(n=20):
    """Median CPU seconds per pass over n passes, in this thread, now."""
    return statistics.median(one_pass() for _ in range(n))


def timed(fn, threads):
    """Run fn(); return (its result, CPU seconds per kernel pass while it
    ran).  A multi-thread workload always reads REF_S, so its time stays
    as measured."""
    if threads > 1:
        return fn(), REF_S
    samples = []
    previous = signal.signal(signal.SIGALRM,
                             lambda signum, frame: samples.append(one_pass()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return result, statistics.median(samples) if samples else burst()
