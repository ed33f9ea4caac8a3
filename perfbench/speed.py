"""Machine speed probe: a fixed calibration kernel, timed between the rounds
of a run, that gives the end-to-end timings at a reference machine speed.

On a shared machine the neighbours' load slows both cores by up to 2x, in
phases that can outlast a whole run (see README.md). Most of segconv's time
goes to the interpreter (per-call overhead in the training step, the search
enumeration), so the kernel is a plain interpreter loop of integer
arithmetic. It never calls segconv, so a change to segconv cannot move it.
"""

from __future__ import annotations

from time import perf_counter

# Median time of one kernel call on a 2-core Intel Xeon VM (Python 3.11) in a
# fast phase. It fixes the scale of the reported timings only; it must not
# change, or every timing moves with it.
REFERENCE_S = 0.0018
SAMPLES_PER_CALL = 3


def _kernel() -> int:
    acc = 0
    for i in range(30000):
        acc += i * i
    return acc


class SpeedProbe:
    """Times the calibration kernel SAMPLES_PER_CALL times per `sample`
    call."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(SAMPLES_PER_CALL):
            t0 = perf_counter()
            _kernel()
            self.samples.append(perf_counter() - t0)
