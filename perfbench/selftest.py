"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Smoke runs of every workload, traced and untraced, must print every metric
that BENCHMARK.json names, with its unit; each output check must reject a
corrupted output; and a directory without segconv sources must fail without
printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SC = run.load_segconv()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int, seconds: str = "0.5"):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "0",
                              "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


_smoke_runs = {}


def smoke_run(workload: str, trace: int):
    """One short run per (workload, trace), shared between tests."""
    if (workload, trace) not in _smoke_runs:
        _smoke_runs[workload, trace] = run_bench(ROOT, workload, trace)
    return _smoke_runs[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = smoke_run(workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
        assert f"{name} = " in proc.stdout  # the human-readable line


def test_traced_iteration_is_covered_by_layer_spans_and_self_time():
    """Direct children of the train span never overlap and stay inside
    their iteration, so layer spans plus step self time equal the traced
    iteration time."""
    assert smoke_run("train", 1).returncode == 0
    spans = np.load(HERE / "out" / "train-seed0-trace1-spans.npz")
    names = list(spans["names"])
    root = names.index("train.train")
    labels = spans["iteration_labels"]
    bounds = spans["iteration_bounds"]
    parent, it = spans["parent"], spans["iter"]
    dur = spans["end"] - spans["start"]
    child = (parent >= 0) & (spans["name"][np.maximum(parent, 0)] == root)
    train_iters = [i for i, lab in enumerate(labels) if lab.startswith("train/")]
    assert train_iters
    for i in train_iters:
        sel = child & (it == i)
        covered = dur[sel].sum()
        width = bounds[i, 1] - bounds[i, 0]
        assert 0.5 * width < covered <= width
        assert (spans["start"][sel] >= bounds[i, 0]).all()
        assert (spans["end"][sel] <= bounds[i, 1]).all()


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("out"))
    proc = run_bench(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_frozen_config_matches_criterion_8_run_log():
    runlog = json.loads((ROOT / "tests" / "data" / "decoder_comparison_runlog.json")
                        .read_text(encoding="utf-8"))["config"]
    assert {k: runlog[k] for k in wl.CRITERION8} == wl.CRITERION8
    assert (wl.TRAIN_DATA_SEED, wl.EVAL_DATA_SEED) == (
        runlog["train_data_seed"], runlog["eval_data_seed"])


# ---------------------------------------------------------------------------
# each output check rejects a corrupted output
# ---------------------------------------------------------------------------


def good_curves():
    return [(0, dec, [100.0, 90.0, REFERENCE["final_loss"][dec]]) for dec in wl.DECODERS]


def test_train_check_accepts_reference_and_rejects_nan_loss():
    assert wl.check_train(good_curves(), 0, REFERENCE) == (0, [])
    outputs = good_curves()
    outputs[1][2][1] = float("nan")
    failed, msgs = wl.check_train(outputs, 0, REFERENCE)
    assert failed == 1 and "non-finite" in msgs[0]


def test_train_check_rejects_wrong_final_loss_and_changed_curve():
    outputs = good_curves()
    outputs[0][2][-1] *= 1.0 + 1e-5
    assert wl.check_train(outputs, 0, REFERENCE)[0] == 1
    assert wl.check_train(outputs, 7, REFERENCE)[0] == 0  # reference is seed 0 only
    again = good_curves() + [(1, "duc", [100.0, 91.0, REFERENCE["final_loss"]["duc"]])]
    assert wl.check_train(again, 0, REFERENCE)[0] == 1


def eval_outputs(iou):
    return [(0, dec, (0, list(iou))) for dec in wl.DECODERS]


def test_eval_check_rejects_iou_outside_unit_interval():
    pooled = REFERENCE["eval_per_class_iou"]
    assert wl.check_eval(eval_outputs([0.5, 0.0, 1.0]), pooled, 0, REFERENCE) == (0, [])
    assert wl.check_eval(eval_outputs([0.5, 1.5, 1.0]), pooled, 0, REFERENCE)[0] == 3
    assert wl.check_eval(eval_outputs([0.5, float("nan"), 1.0]), pooled, 0,
                         REFERENCE)[0] == 3


def test_eval_check_rejects_pooled_iou_off_reference():
    pooled = {dec: list(v) for dec, v in REFERENCE["eval_per_class_iou"].items()}
    pooled["bilinear"][1] += 1e-6
    assert wl.check_eval(eval_outputs([0.5, 0.5, 0.5]), pooled, 0, REFERENCE)[0] == 1


def search_outputs(lists):
    results = {}
    for key, found in lists.items():
        q = tuple(int(v) for v in key.split(","))
        results[q] = [SC.hdc.DilationSchedule(rates=tuple(s[1:]), kernel=s[0])
                      for s in found]
    return [(0, "pass0", results)]


def test_search_check_rejects_perturbed_list():
    assert wl.check_search(SC, search_outputs(REFERENCE["search"]), REFERENCE) == (0, [])
    perturbed = {k: list(v) for k, v in REFERENCE["search"].items()}
    perturbed["4,5,12"] = perturbed["4,5,12"][1:]
    failed, msgs = wl.check_search(SC, search_outputs(perturbed), REFERENCE)
    assert failed == 1 and "4,5,12" in msgs[0]


def test_search_check_rejects_a_gridding_result_even_if_recorded():
    lists = {k: list(v) for k, v in REFERENCE["search"].items()}
    lists["4,3,20"] = lists["4,3,20"] + [[3, 2, 2, 2, 20]]  # rule-invalid, has holes
    fake_reference = dict(REFERENCE, search=lists)
    failed, msgs = wl.check_search(SC, search_outputs(lists), fake_reference)
    assert failed == 1 and "4,3,20" in msgs[0]


def test_exact_counts_must_repeat_and_match_the_reference():
    counts = REFERENCE["counts"]
    assert wl.check_counts({k: [v, v] for k, v in counts.items()}, REFERENCE) == counts
    with pytest.raises(wl.CountMismatch, match="differs between repetitions"):
        wl.check_counts({"hdc.accepted": [2803, 2802]}, REFERENCE)
    with pytest.raises(wl.CountMismatch, match="recorded reference"):
        wl.check_counts({"conv.mflop_per_iter": [3.5]}, REFERENCE)
