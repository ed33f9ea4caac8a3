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

import math
import operator
from dataclasses import dataclass, field
from itertools import groupby, product

import numpy as np

from .tensor import write_json, write_pgm, write_rows


@dataclass(frozen=True, slots=True, init=False)
class DilationSchedule:
    """Ordered dilation rates (bottom to top) sharing one square kernel.

    Both fields go through operator.index once, so a float rate or kernel
    raises ValueError instead of being truncated or kept, and a numpy
    integer is stored as the Python int that json can write."""

    rates: tuple[int, ...]
    kernel: int

    def __init__(self, rates, kernel=3):
        try:
            rates = tuple(map(operator.index, rates))
        except TypeError:
            raise ValueError(f"rates must be integers, got {rates!r}") from None
        try:
            kernel = operator.index(kernel)
        except TypeError:
            raise ValueError(f"kernel must be an integer, got {kernel!r}") from None
        if not rates:
            raise ValueError("schedule must contain at least one rate")
        if min(rates) < 1:
            raise ValueError(f"all rates must be >= 1, got {rates}")
        if kernel < 3 or kernel % 2 == 0:
            raise ValueError(f"kernel size must be odd and >= 3, got {kernel}")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "kernel", kernel)


def max_distance(schedule: DilationSchedule) -> tuple[list[int], bool]:
    """Run the max-gap recurrence; returns ([M_2..M_n], valid).

    max(M - 2r, 2r - M, r) is max(|M - 2r|, r), taken with two compares.
    For n == 1 the list is empty and validity degenerates to r_1 <= K.
    """
    rates = schedule.rates
    m = rates[-1]
    m_values = [m]
    for r in rates[-2:0:-1]:  # r_{n-1} .. r_2 fill M_{n-1} .. M_2
        d = m - 2 * r
        if d < 0:
            d = -d
        m = d if d > r else r
        m_values.append(m)
    if len(rates) == 1:
        return [], m <= schedule.kernel
    m_values.reverse()
    return m_values, m <= schedule.kernel and rates[0] == 1


@dataclass
class FootprintMap:
    """Exact contribution counts of the bottom-layer pixels feeding one
    top-layer pixel. The all-ones K x K masks are separable, so the
    odd-sided square grid centered on that pixel is the outer product of
    the 1-D line with itself; side, mass and holes read off the line."""

    line: np.ndarray
    schedule: DilationSchedule = field(repr=False)

    @property
    def side(self) -> int:
        return self.line.size

    def total(self) -> int:
        return int(self.line.sum()) ** 2

    def holes(self) -> int:
        return self.side**2 - int(np.count_nonzero(self.line)) ** 2


FOOTPRINT_MAX_COUNT = int(np.iinfo(np.int64).max)


def footprint(schedule: DilationSchedule) -> FootprintMap:
    """Exact oracle: contribution counts of the composed stack over its
    receptive-field square. Counts are exact integers and independent of
    layer order (convolution commutes); grid side = 1 + sum((K-1) * r_i),
    total mass = K^(2n). The line, the counts along one axis, is the dilated
    all-ones K-tap masks convolved in int64, exact for counts up to K**n;
    a K**n over FOOTPRINT_MAX_COUNT (int64's maximum) raises ValueError.
    """
    k, n = schedule.kernel, len(schedule.rates)
    if k**n > FOOTPRINT_MAX_COUNT:
        raise ValueError(f"footprint counts of {k}**{n} are over the int64 limit "
                         f"of {FOOTPRINT_MAX_COUNT}")
    line = np.ones(1, dtype=np.int64)
    for r in schedule.rates:
        mask = np.zeros((k - 1) * r + 1, dtype=np.int64)
        mask[::r] = 1
        line = np.convolve(line, mask)
    return FootprintMap(line=line, schedule=schedule)


def coverage_report(fp: FootprintMap) -> tuple[int, float, float]:
    """(hole count, covered fraction, gridded fraction) over the full
    theoretical receptive-field square."""
    area = fp.side**2
    holes = fp.holes()
    return holes, (area - holes) / area, holes / area


def rf_increase_for_rates(rates, kernel: int) -> int:
    """Receptive-field growth along one axis from a stack of dilated convs,
    one K x K conv per rate: each adds (K-1) * rate. Published accountings
    for comparable stacks sometimes differ by a stem-dependent constant;
    this counts the dilated convs only."""
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {kernel}")
    if any(r < 1 for r in rates):
        raise ValueError(f"all rates must be >= 1, got {rates}")
    return (kernel - 1) * sum(rates)


SEARCH_MAX_TUPLES = 10**7  # at about 3.5 us a tuple (2-core VM), about 35 s
SEARCH_MAX_LAYERS = SEARCH_MAX_TUPLES.bit_length()  # 24: past it, 2**n > 10**7


def schedule_search(n: int, kernel: int, rf_target: int) -> list[DilationSchedule]:
    """Enumerate rate tuples (each rate in 1..rf_target) and keep those that
    the analytic rule accepts, whose RF increase (K-1) * sum(rates) reaches
    the target, and whose footprint is hole-free. Sorted by RF descending,
    then rates.

    Once the arguments are checked, rf_target > K**n - 1 returns [] at once:
    a hole-free line covers 1 + (K-1)*sum(rates) positions with K**n tap
    combinations. Then a query over SEARCH_MAX_LAYERS (which also bounds
    target 1's one candidate, with its O(n**2) footprint) or
    SEARCH_MAX_TUPLES, or whose K**n is over FOOTPRINT_MAX_COUNT (first at
    K=7 with 23 layers), raises ValueError. No check raises K or
    rf_target to a huge n.

    Call contract: max_distance runs exactly once per enumerated tuple
    (rf_target**n calls, none for a query the bound rules out) and
    footprint once per rule-valid tuple that reaches the target, both looked
    up as module globals. The benchmark's traced runs wrap those two globals
    and check the call counts against perfbench/reference.json (its three
    queries are within the bound and the caps), so a search that skips or
    batches either call must land with a re-recorded reference, not before.
    """
    if n < 2:
        raise ValueError("search needs at least 2 layers")
    if rf_target < 1:
        raise ValueError("rf_target must be >= 1")
    DilationSchedule((1,), kernel)  # rejects a bad kernel before the bound
    # past rf_target's bit length, K**n > rf_target holds anyway
    if kernel ** min(n, rf_target.bit_length()) <= rf_target:
        return []
    if (n > SEARCH_MAX_LAYERS or rf_target**n > SEARCH_MAX_TUPLES
            or kernel**n > FOOTPRINT_MAX_COUNT):
        raise ValueError(f"search of {rf_target}**{n} candidate tuples with K={kernel} is "
                         f"over the limit of {SEARCH_MAX_TUPLES} tuples, {SEARCH_MAX_LAYERS} "
                         f"layers and footprint counts of {FOOTPRINT_MAX_COUNT}")
    found = []
    for rates in product(range(1, rf_target + 1), repeat=n):
        sched = DilationSchedule(rates, kernel)
        if not max_distance(sched)[1]:
            continue
        rf = (kernel - 1) * sum(rates)
        if rf < rf_target:
            continue
        if footprint(sched).holes() != 0:
            continue
        found.append((-rf, rates, sched))
    found.sort(key=lambda item: item[:2])
    return [sched for _, _, sched in found]


def schedule_report(schedule: DilationSchedule, fp: FootprintMap | None = None) -> dict:
    """JSON-ready summary: rates, kernel, M values, validity, RF increase,
    gcd flag (the rates share a factor > 1, e.g. [2, 4, 8], so the stack
    samples a sublattice and always grids) and, when the schedule's
    footprint fp is given, its hole counts."""
    m_values, valid = max_distance(schedule)
    report = {
        "rates": list(schedule.rates),
        "K": schedule.kernel,
        "M_values": m_values,
        "valid": valid,
        "rf_increase": rf_increase_for_rates(schedule.rates, schedule.kernel),
        "gcd_flag": math.gcd(*schedule.rates) > 1,
    }
    if fp is not None:
        holes, coverage, gridding = coverage_report(fp)
        report["holes"] = holes
        report["coverage_fraction"] = coverage
        report["gridding_fraction"] = gridding
    return report


# ---------------------------------------------------------------------------
# exports: P2 (ASCII) PGM and CSV of the counts, row by row from the line; JSON
# ---------------------------------------------------------------------------


def write_footprint(path, fp: FootprintMap, fmt: str) -> None:
    """fp's counts as a pgm (mapped linearly to 0..255; only zero counts
    give 0) or a csv, each row y written as line[y] * line in exact Python
    ints, so no side**2 grid is built; or its schedule_report as json. Rows
    of equal consecutive counts are equal, so each run of them is one row
    object, formatted once and written again."""
    if fmt == "json":
        write_json(path, schedule_report(fp.schedule, fp))
        return
    if fmt not in ("pgm", "csv"):
        raise ValueError(f"unknown footprint format {fmt!r}")
    line = fp.line.tolist()
    peak = max(line) ** 2

    def rows():
        for a, run in groupby(line):
            row = ([a * b * 255 // peak for b in line] if fmt == "pgm"
                   else [a * b for b in line])
            for _ in run:
                yield row

    if fmt == "pgm":
        write_pgm(path, rows(), fp.side, fp.side)
    else:
        write_rows(path, rows(), ",")
