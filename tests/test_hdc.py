import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    footprint_counts_2d,
    max_gap_1d,
    max_gap_rule,
    read_pgm,
    tap_positions_1d,
)
from segconv import hdc
from segconv.hdc import (
    DilationSchedule,
    coverage_report,
    footprint,
    max_distance,
    rf_increase_for_rates,
    schedule_report,
    schedule_search,
    write_footprint,
)
from segconv.tensor import Rng


def sched(rates, k=3):
    return DilationSchedule(rates=tuple(rates), kernel=k)


# -- the max-gap recurrence ----------------------------------------------------


def test_rising_schedule_with_small_gap_is_valid():
    m, valid = max_distance(sched([1, 2, 5]))
    assert m == [2, 5]
    assert valid


def test_rising_schedule_with_large_top_rate_is_invalid():
    m, valid = max_distance(sched([1, 2, 9]))
    assert m == [5, 9]
    assert not valid


def test_all_ones_schedule_valid_any_kernel():
    for k in (3, 5, 7):
        m, valid = max_distance(sched([1] * 6, k))
        assert m == [1] * 5
        assert valid


def test_uniform_rate2_stack_is_flagged_invalid():
    # the classic gridding stack; its footprint is a quarter-density lattice
    _, valid = max_distance(sched([2, 2, 2]))
    assert not valid
    assert footprint(sched([2, 2, 2])).holes() > 0


def test_single_layer_degenerate_rule():
    assert max_distance(sched([2])) == ([], True)
    assert max_distance(sched([4])) == ([], False)


def test_empty_schedule_rejected():
    with pytest.raises(ValueError):
        DilationSchedule(rates=(), kernel=3)


def test_float_rate_is_refused_not_truncated():
    with pytest.raises(ValueError, match="rates must be integers"):
        DilationSchedule(rates=(1, 2.7, 3), kernel=3)


def test_float_kernel_is_refused():
    with pytest.raises(ValueError, match="kernel must be an integer"):
        DilationSchedule(rates=(1, 2, 3), kernel=3.5)


def test_numpy_integers_are_stored_as_python_ints():
    s = DilationSchedule(rates=tuple(np.array([1, 2, 5])), kernel=np.int64(3))
    assert type(s.kernel) is int and all(type(r) is int for r in s.rates)
    assert s == sched([1, 2, 5])
    assert json.loads(json.dumps(schedule_report(s)))["K"] == 3


def test_recurrence_upper_bounds_exact_upper_stack_gap():
    # M_2 must never fall below the true max gap of layers 2..n composed,
    # otherwise the validity rule would pass gridding stacks
    rng = Rng(77)
    for _ in range(300):
        n = 2 + rng.randint(3)
        k = (3, 5)[rng.randint(2)]
        rates = [1 + rng.randint(6) for _ in range(n)]
        m, _ = max_distance(sched(rates, k))
        assert m[0] >= max_gap_1d(rates[1:], k)


def test_recurrence_matches_the_papers_rule_exhaustively():
    checked = 0
    for k in (3, 5):
        for n in (1, 2, 3, 4):
            for rates in itertools.product(range(1, 8), repeat=n):
                got = max_distance(sched(rates, k))
                assert got == max_gap_rule(rates, k), (rates, k)
                assert all(type(m) is int for m in got[0])
                checked += 1
    assert checked == 2 * (7 + 7 ** 2 + 7 ** 3 + 7 ** 4)


# -- the footprint oracle ------------------------------------------------------


def test_single_dilated_layer_covers_9_of_25():
    fp = footprint(sched([2]))
    assert fp.side == 5
    assert int(np.count_nonzero(np.outer(fp.line, fp.line))) == 9
    holes, coverage, gridding = coverage_report(fp)
    assert holes == 16
    assert coverage == 9 / 25
    assert gridding == 16 / 25


def test_uniform_stack_checkerboard_fraction():
    fp = footprint(sched([2, 2, 2]))
    assert fp.side == 13
    ys, xs = np.nonzero(np.outer(fp.line, fp.line))
    assert np.all(ys % 2 == 0) and np.all(xs % 2 == 0)
    holes, coverage, _ = coverage_report(fp)
    assert coverage == 49 / 169
    assert holes == 169 - 49


def test_sawtooth_stack_has_no_holes():
    fp = footprint(sched([1, 2, 3]))
    assert fp.side == 13
    assert fp.holes() == 0


def test_footprint_of_all_rate1_pair_is_full():
    holes, coverage, _ = coverage_report(footprint(sched([1, 1])))
    assert holes == 0 and coverage == 1.0


def test_footprint_matches_independent_counting_oracle():
    rng = Rng(50)
    for _ in range(20):
        n = 1 + rng.randint(3)
        k = (3, 5)[rng.randint(2)]
        rates = [1 + rng.randint(4) for _ in range(n)]
        fp = footprint(sched(rates, k))
        want = footprint_counts_2d(rates, k)
        assert np.array_equal(np.outer(fp.line, fp.line), want)
        # the counts read off the 1-D line match the independent 2-D grid's
        assert fp.side == want.shape[0] == want.shape[1]
        assert fp.total() == int(want.sum())
        assert fp.holes() == int(np.count_nonzero(want == 0))


def test_footprint_order_invariance():
    rng = Rng(51)
    for _ in range(30):
        n = 2 + rng.randint(3)
        rates = [1 + rng.randint(5) for _ in range(n)]
        perm = list(rates)
        for i in range(len(perm) - 1, 0, -1):  # seeded Fisher-Yates
            j = rng.randint(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        line, line_p = footprint(sched(rates)).line, footprint(sched(perm)).line
        assert np.array_equal(np.outer(line, line), np.outer(line_p, line_p))


def test_footprint_total_mass_and_center():
    for rates, k in [([2, 3], 3), ([1, 2, 3], 3), ([4], 5), ([2, 2, 2, 2], 3)]:
        fp = footprint(sched(rates, k))
        assert fp.total() == k ** (2 * len(rates))
        mid = fp.side // 2
        assert np.outer(fp.line, fp.line)[mid, mid] >= 1


def test_footprint_separability():
    # the independent 2-D counts are the outer product of the 1-D line
    for rates, k in [([1, 2, 3], 3), ([2, 4], 5), ([3], 3)]:
        line = footprint(sched(rates, k)).line
        assert np.array_equal(footprint_counts_2d(rates, k), np.outer(line, line))


def test_footprint_counts_are_exact_up_to_the_int64_limit():
    # 3**39 < 2**63 - 1 < 3**40: the int64 line stays exact for 39 layers
    fp = footprint(sched([1] * 39))
    exact = [1]
    for _ in range(39):  # the trinomial coefficients, in Python ints
        exact = [sum(exact[max(0, i - 2):i + 1]) for i in range(len(exact) + 2)]
    assert fp.line.tolist() == exact
    assert fp.total() == 3 ** 78
    with pytest.raises(ValueError, match=r"3\*\*40 are over the int64 limit"):
        footprint(sched([1] * 40))


def test_gcd_schedules_always_grid():
    for rates in ([2, 2], [2, 4], [3, 6, 9], [2, 4, 8], [4, 2], [6, 3]):
        assert schedule_report(sched(rates))["gcd_flag"]
        assert footprint(sched(rates)).holes() > 0


# -- schedule utilities ----------------------------------------------------------


def test_common_factor_check_values():
    # the gcd flag of schedule_report
    for rates, flag in [([2, 4, 8], True), ([1, 2, 3], False), ([3, 6, 9], True),
                        ([4], True), ([1], False), ([2, 3], False)]:
        assert schedule_report(sched(rates))["gcd_flag"] is flag, rates


def test_rf_increase_reference_configs():
    # 23-block stage as seven 1,2,3 ramps ending in 2,2 plus a 3,4,5 stage
    ramped = [1] * 7 + [2] * 7 + [3] * 7 + [2, 2, 3, 4, 5]
    assert rf_increase_for_rates(ramped, 3) == 116
    assert rf_increase_for_rates([1] * 26, 3) == 52
    bigger = [1] * 5 + [2] * 5 + [5] * 5 + [9] * 5 + [1, 2, 5, 5, 9, 17]
    assert rf_increase_for_rates(bigger, 3) == 248
    assert rf_increase_for_rates([1], 3) == 2
    assert rf_increase_for_rates([2, 4], 5) == 24


def test_rf_increase_rejects_bad_kernel_and_rates():
    for kernel in (4, 0, -1):
        with pytest.raises(ValueError, match="kernel size"):
            rf_increase_for_rates([1, 2], kernel)
    for rates in ([1, 0], [-2]):
        with pytest.raises(ValueError, match="rates must be >= 1"):
            rf_increase_for_rates(rates, 3)


def test_search_finds_canonical_ramp():
    results = schedule_search(3, 3, 12)
    rates = [s.rates for s in results]
    assert (1, 2, 3) in rates
    for s in results:
        assert footprint(s).holes() == 0
        assert rf_increase_for_rates(s.rates, 3) >= 12
        _, valid = max_distance(s)
        assert valid
    # sorted by receptive field, descending
    rfs = [rf_increase_for_rates(s.rates, 3) for s in results]
    assert rfs == sorted(rfs, reverse=True)


def brute_force_search(n, k, target):
    """Every tuple with independent checks: the RF sum, the paper's
    recurrence, and a gap-free 1-D tap support (the 2-D footprint is its
    outer product, so this is hole-free); in schedule_search's order."""
    want = []
    for rates in itertools.product(range(1, target + 1), repeat=n):
        rf = (k - 1) * sum(rates)
        if rf >= target and max_gap_rule(rates, k)[1]:
            pts = tap_positions_1d(rates, k)
            if len(pts) == pts[-1] + 1:
                want.append((-rf, rates))
    return [rates for _, rates in sorted(want)]


def test_search_is_complete_and_in_order():
    for n in (2, 3):
        for k in (3, 5):
            for target in (5, 8, 13):
                found = schedule_search(n, k, target)
                assert [s.rates for s in found] == brute_force_search(n, k, target)
                assert all(s.kernel == k for s in found)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(query=st.sampled_from([(2, 3), (2, 5), (3, 3)]).flatmap(
    lambda nk: st.tuples(st.just(nk[0]), st.just(nk[1]),
                         st.integers(1, nk[1] ** nk[0] + 3))))
def test_search_equals_brute_force_around_the_rf_bound(query):
    # targets up to K**n + 3: past K**n - 1 the search returns [] without
    # enumerating a tuple, and brute force agrees that none qualifies
    n, k, target = query
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hdc, "max_distance", lambda s, f=hdc.max_distance: calls.append(1) or f(s))
        found = schedule_search(n, k, target)
    assert [s.rates for s in found] == brute_force_search(n, k, target)
    assert (len(calls) == 0) == (target > k**n - 1)


def test_search_call_contract_matches_the_benchmark_reference(monkeypatch):
    """One max_distance call per enumerated tuple and one footprint call per
    rule-valid, RF-reaching tuple, through the module globals. The
    benchmark's traced runs wrap both globals and compare the counts with
    perfbench/reference.json, so a search that batches or skips either call
    fails every traced run until that reference is re-recorded with it.
    This test fails first, in about a second, and changes with the
    reference."""
    calls = {"max_distance": 0, "footprint": 0}

    def counted(name):
        fn = getattr(hdc, name)

        def wrapper(schedule):
            calls[name] += 1
            return fn(schedule)

        return wrapper

    for name in calls:
        monkeypatch.setattr(hdc, name, counted(name))
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "reference.json").read_text())
    for key, want in ref["search"].items():
        n, k, rf = map(int, key.split(","))
        assert [[s.kernel, *s.rates] for s in schedule_search(n, k, rf)] == want, key
    assert calls == {"max_distance": 429_568, "footprint": 2_803}


def test_search_depth_two_cannot_reach_large_rf():
    assert schedule_search(2, 3, 50) == []


def test_search_rejects_single_layer():
    with pytest.raises(ValueError):
        schedule_search(1, 3, 4)


@pytest.mark.parametrize("kernel", [1, 4, 2.0])
def test_search_checks_the_kernel_before_the_bound(kernel):
    # 50 > kernel**2 - 1 for each, so the bound alone would return []
    with pytest.raises(ValueError, match="kernel"):
        schedule_search(2, kernel, 50)


@pytest.mark.parametrize("n,k,target,ok", [(23, 7, 2, False), (22, 7, 2, True),
                                            (24, 7, 1, False), (24, 5, 1, True),
                                            (24, 3, 1, True)])
def test_search_refuses_counts_over_int64_before_any_work(monkeypatch, n, k, target, ok):
    # within the 24-layer cap only K >= 7 can pass int64's maximum; each
    # query is under the tuple cap
    assert (k**n <= hdc.FOOTPRINT_MAX_COUNT) == ok
    monkeypatch.setattr(hdc, "max_distance", None)
    if ok:
        with pytest.raises(TypeError):  # reached the enumeration
            schedule_search(n, k, target)
    else:
        with pytest.raises(ValueError, match="footprint counts of 9223372036854775807"):
            schedule_search(n, k, target)


# -- reports and exports -----------------------------------------------------------


def test_schedule_report_fields():
    s = sched([1, 2, 5])
    rep = schedule_report(s, footprint(s))
    assert rep["rates"] == [1, 2, 5]
    assert rep["K"] == 3
    assert rep["M_values"] == [2, 5]
    assert rep["valid"] is True
    assert rep["rf_increase"] == 16
    assert rep["gcd_flag"] is False
    assert rep["holes"] == 0
    assert rep["coverage_fraction"] == 1.0


def test_pgm_export_roundtrip(tmp_path):
    fp = footprint(sched([1, 2]))
    grid = np.outer(fp.line, fp.line)
    path = tmp_path / "fp.pgm"
    write_footprint(path, fp, "pgm")
    img = read_pgm(path)
    assert img.shape == grid.shape
    peak = grid.max()
    assert np.array_equal(img, grid * 255 // peak)
    # zero-count cells map to 0 and only they do
    assert np.array_equal(img == 0, grid == 0)


def test_pgm_single_rate1_layer_all_ones(tmp_path):
    fp = footprint(sched([1]))
    grid = np.outer(fp.line, fp.line)
    assert grid.shape == (3, 3)
    assert np.all(grid == 1)
    path = tmp_path / "fp.pgm"
    write_footprint(path, fp, "pgm")
    text = path.read_text(encoding="ascii")
    assert text.splitlines()[:3] == ["P2", "3 3", "255"]
    assert all(v == "255" for v in " ".join(text.splitlines()[3:]).split())


def test_csv_export_raw_counts(tmp_path):
    path = tmp_path / "fp.csv"
    write_footprint(path, footprint(sched([2])), "csv")
    rows = path.read_text(encoding="ascii").strip().splitlines()
    assert rows[0] == "1,0,1,0,1"
    assert rows[1] == "0,0,0,0,0"


# sha256 of the pgm and csv bytes, recorded from the side**2-grid writers
# that the row-by-row ones replaced; the last schedule has side 343
EXPORT_SHA256 = {
    ((1, 2), 3): ("59ff93adeada1fb75b4c96c48107e89179ff2364f797f5f5c6f46d5f9cd0558c",
                  "264f29590615359a94cd658431624c388c157715c951d3ea47c03d153e8970bd"),
    ((2, 2, 2), 3): ("2391138f96c480be9e780242637c9605966b2db1885a663551d3ad1907d62aa2",
                     "b81ac5d637d9e109076d86066ba374ebdfa3b63d66abc7bda30ce96202c4721f"),
    ((1, 2, 5), 3): ("69ca3839103642517356f4acbdd3248829ad31c80665bc6fbf777f6eb321b335",
                     "8670f0421b23ed171d4514691391eedd21d37ac2a70e1647e273dd08a27ed596"),
    ((1, 2, 5), 5): ("8b11cc5db5839a477432e0176c8219d0d531a66f07018958bf2f9565c37f7883",
                     "27ae10cdee97499176d3b03dafb4e0390d25ee028f134cba631be6b2c414d17d"),
    ((1, 3, 9, 12), 3): ("0eac081edc4931e919af21fe9cb0a51f7eb924ae4e075d6ae3241f2d4a8b7e8e",
                         "a73d8790ac08e2fa99fdcce532b299c32b29d7b382ae6ed243a66807be6da012"),
    ((1, 2, 67, 101), 3): ("59855dd39b2bcdccae2c63ddf7dcdbb810134fed3271ef43b30a1ae1a0d20ceb",
                           "cbacf5611eec06d84aec6860dc5798cc406cfc07e91dfc1b84cbeaad72d7a129"),
    # recorded before runs of equal rows were written from one formatted
    # row: a sparse line (side 513), a flat one (every count 1, side 729)
    # and a dense one (side 329)
    ((1, 255), 3): ("d338ca573b2acbe71592bba15381c89973aa28ec7a6e5172142304db6d3845c1",
                    "7ad0542e6c2ec9fcc54756f5f20e84106a47a6bb1e513ec07007c09d0a3f56cf"),
    ((1, 3, 9, 27, 81, 243), 3): (
        "5afef12525eac4b6f44997fda49352df03384a03f7668bcc421561f7a160dd20",
        "0241f47f687cabcfb060dd4ffe2fdfaf5d17af301513f21230c3c3f1674c542c"),
    ((5, 17, 60), 5): ("458532ba2a738b4b1dfc6432d81f23c7369987eeb6576fda73bea67980d62367",
                       "16fbd57d53d72ad108216bba2b7c7fd2ea69f7b860be61c7cda9d8663316b4a0"),
}


@pytest.mark.parametrize("rates,k", sorted(EXPORT_SHA256))
def test_pgm_and_csv_exports_keep_their_bytes(tmp_path, rates, k):
    fp = footprint(sched(rates, k))
    for fmt, want in zip(("pgm", "csv"), EXPORT_SHA256[rates, k]):
        path = tmp_path / f"fp.{fmt}"
        write_footprint(path, fp, fmt)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, fmt


@pytest.mark.parametrize("fmt", ["pgm", "csv"])
def test_exports_hold_no_side_squared_grid(tmp_path, fmt):
    # side 513: a 513**2 grid of int64 alone is 2.1 MB, the text of a row
    # a few kB
    fp = footprint(sched([1, 255]))
    assert fp.side == 513
    tracemalloc.start()
    try:
        write_footprint(tmp_path / f"fp.{fmt}", fp, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_json_export_is_valid_report(tmp_path):
    path = tmp_path / "fp.json"
    write_footprint(path, footprint(sched([2, 2, 2])), "json")
    rep = json.loads(path.read_text())
    assert rep["valid"] is False
    assert rep["holes"] == 120
    assert rep["gcd_flag"] is True


def test_unknown_export_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_footprint(tmp_path / "x", footprint(sched([1])), "png")


# -- the soundness sweep (also an acceptance criterion; kept here so module-level
#    regressions are caught without running the full acceptance suite) -------------


def sweep_schedules():
    for k in (3, 5):
        for n in (2, 3, 4):
            for rates in itertools.product(range(1, 7), repeat=n):
                yield sched(rates, k)


def test_valid_schedules_never_have_holes_and_converse_is_reported():
    false_negatives = 0
    checked = 0
    for s in sweep_schedules():
        checked += 1
        _, valid = max_distance(s)
        holes = footprint(s).holes()
        if valid:
            assert holes == 0, f"analytic rule passed a gridding stack: {s}"
        elif holes == 0:
            false_negatives += 1
    assert checked == 2 * (6 ** 2 + 6 ** 3 + 6 ** 4)
    # hole-free stacks the conservative rule rejects exist; measured, not asserted
    assert false_negatives > 0
