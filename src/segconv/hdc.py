"""Dilation-schedule analysis: the max-gap recurrence, hole-free validity,
receptive-field accounting, schedule search, and an exact footprint oracle
that renders gridding patterns.

Validity rule
-------------
For a stack of n layers with shared odd kernel K and rates [r1..rn] listed
bottom (closest to the input) to top, the recurrence

    M_n = r_n
    M_i = max(M_{i+1} - 2*r_i,  2*r_i - M_{i+1},  r_i)        for i = n-1 .. 2

bounds the largest gap between nonzero taps of layers 2..n composed. The
schedule is declared gridding-free when M_2 <= K *and* r_1 == 1: the bottom
layer is then a solid K-wide block, which closes every remaining gap of size
at most K. The second condition matters: the recurrence never consults r_1,
so on its own M_2 <= K would wave through uniform-rate stacks such as
[2, 2, 2] whose footprint is a checkerboard. The footprint oracle below is
the ground truth whenever the analytic rule is in doubt; the rule is
deliberately conservative (some hole-free stacks, e.g. rate-sorted
permutations of valid ones, are declared invalid).

A single layer (n == 1) is accepted when r_1 <= K, the degenerate reading of
the same inequality; its footprint still shows r_1 > 1 sampling gaps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np

from .tensor import pgm_text


@dataclass(frozen=True)
class DilationSchedule:
    """Ordered dilation rates (bottom to top) sharing one square kernel."""

    rates: tuple[int, ...]
    kernel: int = 3

    def __post_init__(self):
        rates = tuple(int(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        if not rates:
            raise ValueError("schedule must contain at least one rate")
        if any(r < 1 for r in rates):
            raise ValueError(f"all rates must be >= 1, got {rates}")
        if self.kernel < 3 or self.kernel % 2 == 0:
            raise ValueError(f"kernel size must be odd and >= 3, got {self.kernel}")


def max_distance(schedule: DilationSchedule) -> tuple[list[int], bool]:
    """Run the max-gap recurrence; returns ([M_2..M_n], valid).

    For n == 1 the list is empty and validity degenerates to r_1 <= K.
    """
    rates, k = schedule.rates, schedule.kernel
    n = len(rates)
    if n == 1:
        return [], rates[0] <= k
    m = rates[n - 1]
    m_values = [m]
    for i in range(n - 2, 0, -1):  # fills M_{n-1} .. M_2
        r = rates[i]
        m = max(m - 2 * r, 2 * r - m, r)
        m_values.append(m)
    m_values.reverse()
    valid = m_values[0] <= k and rates[0] == 1
    return m_values, valid


def common_factor_check(rates) -> bool:
    """True when every rate shares a factor > 1 (e.g. [2,4,8]): such stacks
    sample only a sublattice and always grid."""
    rates = list(rates)
    if not rates:
        raise ValueError("rates must be nonempty")
    return reduce(math.gcd, rates) > 1


@dataclass
class FootprintMap:
    """Exact contribution counts of the bottom-layer pixels feeding one
    top-layer pixel; odd-sided square grid centered on that pixel."""

    grid: np.ndarray
    schedule: DilationSchedule = field(repr=False)

    @property
    def side(self) -> int:
        return self.grid.shape[0]

    def total(self) -> int:
        return int(self.grid.sum())

    def holes(self) -> int:
        return int(np.count_nonzero(self.grid == 0))


def footprint(schedule: DilationSchedule) -> FootprintMap:
    """Exact oracle: contribution counts of the composed stack over its
    receptive-field square. The all-ones K x K masks are separable, so the
    grid is the outer product of footprint_1d with itself. Counts are exact
    integers and independent of layer order (convolution commutes); grid
    side = 1 + sum((K-1) * r_i), total mass = K^(2n).
    """
    line = footprint_1d(schedule)
    return FootprintMap(grid=np.outer(line, line), schedule=schedule)


def footprint_1d(schedule: DilationSchedule) -> np.ndarray:
    """1-D counts along one axis: the dilated all-ones K-tap masks convolved."""
    k = schedule.kernel
    line = np.ones(1, dtype=np.int64)
    for r in schedule.rates:
        nxt = np.zeros(line.size + (k - 1) * r, dtype=np.int64)
        for t in range(k):
            nxt[t * r : t * r + line.size] += line
        line = nxt
    return line


def coverage_report(fp: FootprintMap) -> tuple[int, float, float]:
    """(hole count, covered fraction, gridded fraction) over the full
    theoretical receptive-field square."""
    area = fp.grid.size
    holes = fp.holes()
    return holes, (area - holes) / area, holes / area


def rf_increase(groups, kernel: int) -> int:
    """Receptive-field growth along one axis from a stack of dilated convs.

    `groups` is a list of (count, rate) pairs; every conv contributes
    (K-1) * rate. Published accountings for comparable stacks sometimes
    differ by a stem-dependent constant; this function counts the dilated
    convs only.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {kernel}")
    total = 0
    for count, rate in groups:
        if count < 0 or rate < 1:
            raise ValueError(f"bad group ({count}, {rate})")
        total += count * (kernel - 1) * rate
    return total


def rf_increase_for_rates(rates, kernel: int) -> int:
    return rf_increase([(1, r) for r in rates], kernel)


def schedule_search(n: int, kernel: int, rf_target: int) -> list[DilationSchedule]:
    """Enumerate rate tuples (each rate in 1..rf_target) and keep those that
    the analytic rule accepts, whose footprint is hole-free, and whose RF
    increase reaches the target. Sorted by RF descending, then rates."""
    if n < 2:
        raise ValueError("search needs at least 2 layers")
    if rf_target < 1:
        raise ValueError("rf_target must be >= 1")
    found = []
    for rates in product(range(1, rf_target + 1), repeat=n):
        sched = DilationSchedule(rates=rates, kernel=kernel)
        _, valid = max_distance(sched)
        if not valid:
            continue
        if rf_increase_for_rates(rates, kernel) < rf_target:
            continue
        if footprint(sched).holes() != 0:
            continue
        found.append(sched)
    found.sort(key=lambda s: (-rf_increase_for_rates(s.rates, kernel), s.rates))
    return found


def schedule_report(schedule: DilationSchedule, fp: FootprintMap | None = None) -> dict:
    """JSON-ready summary: rates, kernel, M values, validity, RF increase,
    gcd flag, and, when the schedule's footprint fp is given, its hole
    counts."""
    m_values, valid = max_distance(schedule)
    report = {
        "rates": list(schedule.rates),
        "K": schedule.kernel,
        "M_values": m_values,
        "valid": valid,
        "rf_increase": rf_increase_for_rates(schedule.rates, schedule.kernel),
        "gcd_flag": common_factor_check(schedule.rates),
    }
    if fp is not None:
        holes, coverage, gridding = coverage_report(fp)
        report["holes"] = holes
        report["coverage_fraction"] = coverage
        report["gridding_fraction"] = gridding
    return report


# ---------------------------------------------------------------------------
# exports: P2 (ASCII) PGM, CSV of raw counts, JSON report
# ---------------------------------------------------------------------------


def footprint_to_pgm(fp: FootprintMap) -> str:
    """Counts linearly mapped to 0..255; zero-count cells stay 0."""
    # object dtype: Python-int arithmetic, exact for counts of any size
    return pgm_text(fp.grid.astype(object) * 255 // int(fp.grid.max()))


def footprint_to_csv(fp: FootprintMap) -> str:
    return "\n".join(",".join(str(int(v)) for v in row) for row in fp.grid) + "\n"


def write_footprint(path, fp: FootprintMap, fmt: str) -> None:
    path = Path(path)
    if fmt == "pgm":
        path.write_text(footprint_to_pgm(fp), encoding="ascii")
    elif fmt == "csv":
        path.write_text(footprint_to_csv(fp), encoding="ascii")
    elif fmt == "json":
        path.write_text(
            json.dumps(schedule_report(fp.schedule, fp), sort_keys=True, indent=1) + "\n",
            encoding="ascii",
        )
    else:
        raise ValueError(f"unknown footprint format {fmt!r}")
