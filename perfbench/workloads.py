"""The three stages of a benchmark run and the checks on their outputs.

Every run executes all three stages, because every run reports every
end-to-end metric; the workload named on the command line decides which conv
stage (train or eval) gets the larger share of the measured time, and search
always gets the largest (see README.md).

* train: criterion 8's decoder comparison config (tests/data/
  decoder_comparison_runlog.json), one fresh net per decoder per round,
  trained through ``segconv.train.train``.
* eval: ``segconv.train.evaluate`` on one 128x128 image at a time, with a
  seeded untrained net per decoder.
* search: ``segconv.hdc.schedule_search`` over three fixed queries.

Only public segconv functions are called, always through their module so that
the span recorder in spans.py can patch them.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from spans import SpanLog, patched, tracing_patches
from speed import SpeedProbe

DECODERS = ("duc", "bilinear", "deconv")

# Criterion 8's training config, frozen here so that the benchmark does not
# change when the test data does; perfbench/selftest.py checks it still
# matches the run log.
CRITERION8 = {
    "width": 8, "size": 32, "batch": 1, "schedule": [1, 2, 3], "kernel": 3,
    "d": 4, "classes": 3, "thickness": 1, "train_size": 200,
    "base_lr": 0.00025, "power": 0.9, "momentum": 0.9, "weight_decay": 0.0005,
}
# Seeds at workload seed 0 are criterion 8's; seed s shifts each by s.
TRAIN_DATA_SEED, EVAL_DATA_SEED = 17, 99

TRAIN_ITERS_PER_ROUND = 16
EVAL_SIZE = 128
EVAL_IMAGES = 8
SEARCH_QUERIES = ((4, 3, 20), (5, 3, 12), (4, 5, 12))  # (n, K, rf_target)

DEFAULT_SEED = 0
LOSS_RTOL = 1e-6   # final loss vs the recorded reference, relative
IOU_ATOL = 1e-9    # per-class IoU vs the recorded reference, absolute


@dataclass
class Inputs:
    seed: int
    train_data: list
    eval_data: list
    eval_nets: dict
    train_nets: dict
    queries: tuple


@dataclass
class StageLog:
    """Timed samples and outputs of one stage."""
    samples: dict = field(default_factory=dict)         # variant -> [sample, ...]
    traced_samples: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)         # (round, variant, output)
    rounds: int = 0
    ops: int = 0
    busy_s: float = 0.0

    def add(self, traced: bool, variant: str, values: list) -> None:
        target = self.traced_samples if traced else self.samples
        target.setdefault(variant, []).extend(values)


def build_net(sc, decoder: str, seed: int, log: SpanLog | None):
    c = CRITERION8
    sched = sc.hdc.DilationSchedule(rates=tuple(c["schedule"]), kernel=c["kernel"])
    net = sc.train.ToyNet.build(d=c["d"], schedule=sched, decoder=decoder,
                                classes=c["classes"], seed=seed, width=c["width"])
    if log is not None:
        log.tag_layers(net)
    return net


def setup(sc, seed: int, log: SpanLog | None) -> Inputs:
    """Generate every input of a run from the workload seed and build the nets."""
    c = CRITERION8
    gen = sc.data
    if log is not None:
        log.label = ("setup", "train_data")
    train_data = gen.gen_thin_structures(c["train_size"], c["size"], c["size"],
                                         c["thickness"], c["classes"],
                                         sc.tensor.Rng(TRAIN_DATA_SEED + seed))
    if log is not None:
        log.label = ("setup", "eval_data")
    eval_data = gen.gen_thin_structures(EVAL_IMAGES, EVAL_SIZE, EVAL_SIZE,
                                        c["thickness"], c["classes"],
                                        sc.tensor.Rng(EVAL_DATA_SEED + seed))
    train_nets = {dec: build_net(sc, dec, seed, log) for dec in DECODERS}
    eval_nets = {dec: build_net(sc, dec, seed, log) for dec in DECODERS}
    k = len(SEARCH_QUERIES)
    queries = tuple(SEARCH_QUERIES[(i + seed) % k] for i in range(k))
    return Inputs(seed, train_data, eval_data, eval_nets, train_nets, queries)


def sgd_config(sc, seed: int):
    c = CRITERION8
    return sc.train.SgdConfig(base_lr=c["base_lr"], power=c["power"],
                              max_iter=TRAIN_ITERS_PER_ROUND,
                              momentum=c["momentum"],
                              weight_decay=c["weight_decay"], batch=c["batch"],
                              seed=seed)


# ---------------------------------------------------------------------------
# one round of each stage
# ---------------------------------------------------------------------------


def train_round(sc, inputs: Inputs, rnd: int, traced: bool, log, stage: StageLog):
    """Train a fresh net per decoder for TRAIN_ITERS_PER_ROUND iterations.
    Iteration times are the gaps between the ends of successive sgd_step
    calls, the first measured from the call into train()."""
    cfg = sgd_config(sc, inputs.seed)
    for dec in DECODERS:
        net = inputs.train_nets.pop(dec, None) or build_net(sc, dec, inputs.seed, log)
        stamps = []
        inner = sc.train.sgd_step

        def stamped(*args, **kwargs):
            inner(*args, **kwargs)
            stamps.append(perf_counter())

        if log is not None:
            log.label = ("train", dec)
        with patched([(sc.train, "sgd_step", stamped)]):
            t0 = perf_counter()
            curve = sc.train.train(net, inputs.train_data, cfg)
        times = [t0] + stamps
        stage.add(traced, dec, [(b - a) * 1e3 for a, b in zip(times, times[1:])])
        stage.outputs.append((rnd, dec, list(curve)))
        stage.ops += len(curve)


def eval_round(sc, inputs: Inputs, rnd: int, traced: bool, log, stage: StageLog):
    """evaluate() on one image at a time: predict, confusion and IoU."""
    for dec in DECODERS:
        net = inputs.eval_nets[dec]
        if log is not None:
            log.label = ("eval", dec)
        times = []
        for i, sample in enumerate(inputs.eval_data):
            t0 = perf_counter()
            per_class, _ = sc.train.evaluate(net, [sample])
            times.append((perf_counter() - t0) * 1e3)
            stage.outputs.append((rnd, dec, (i, per_class)))
            stage.ops += 1
        stage.add(traced, dec, times)


def search_round(sc, inputs: Inputs, rnd: int, traced: bool, log, stage: StageLog):
    """One pass over the search queries."""
    if log is not None:
        log.label = ("search", f"pass{rnd}")
    results = {}
    t0 = perf_counter()
    for q in inputs.queries:
        results[q] = sc.hdc.schedule_search(*q)
    stage.add(traced, "pass", [perf_counter() - t0])
    stage.outputs.append((rnd, f"pass{rnd}", results))
    stage.ops += len(inputs.queries)


def setup_round(sc, inputs: Inputs, rnd: int, traced: bool, log, stage: StageLog):
    """Repeat the set-up, so that its timing samples the whole run too; the
    inputs of the run stay those of the first set-up."""
    t0 = perf_counter()
    setup(sc, inputs.seed, log)
    stage.add(traced, "setup", [perf_counter() - t0])


ROUNDS = {"train": train_round, "eval": eval_round, "search": search_round,
          "setup": setup_round}


def run_stages(sc, inputs: Inputs, budgets: dict, log: SpanLog | None,
               probe: SpeedProbe | None = None) -> dict:
    """Run rounds of every stage, interleaved so that each stage samples the
    whole run, until each stage has been busy for its budget (seconds) and
    has at least one round. The next round goes to the stage furthest behind
    its budget. With a span log, each stage alternates traced and untraced
    rounds (at least one of each): the traced ones give the per-layer
    metrics, the untraced ones the baseline for the tracing overhead. With a
    speed probe, the calibration kernel is timed before every round."""
    stages = {name: StageLog() for name in budgets}
    min_rounds = 1 if log is None else 2
    while True:
        pending = [n for n, st in stages.items()
                   if st.rounds < min_rounds or st.busy_s < budgets[n]]
        if not pending:
            return stages
        name = min(pending, key=lambda n: stages[n].busy_s / budgets[n])
        stage = stages[name]
        traced = log is not None and stage.rounds % 2 == 0
        if probe is not None:
            probe.sample()
        t0 = perf_counter()
        with patched(tracing_patches(log, sc)) if traced else nullcontext():
            ROUNDS[name](sc, inputs, stage.rounds, traced, log, stage)
        stage.busy_s += perf_counter() - t0
        stage.rounds += 1


# ---------------------------------------------------------------------------
# output checks; each returns (failed operation count, messages)
# ---------------------------------------------------------------------------


def check_train(outputs, seed: int, reference: dict):
    """Every loss finite; every round of a decoder gives the same curve; on
    the default seed the final loss matches the reference within LOSS_RTOL."""
    failed, msgs = 0, []
    first = {}
    for rnd, dec, curve in outputs:
        bad = sum(1 for v in curve if not math.isfinite(v))
        if bad:
            failed += bad
            msgs.append(f"train {dec} round {rnd}: {bad} non-finite losses")
            continue
        if dec not in first:
            first[dec] = curve
        elif curve != first[dec]:
            failed += 1
            msgs.append(f"train {dec} round {rnd}: loss curve differs from round 0")
            continue
        if seed == DEFAULT_SEED:
            ref = reference["final_loss"][dec]
            if not abs(curve[-1] - ref) <= LOSS_RTOL * abs(ref):
                failed += 1
                msgs.append(f"train {dec} round {rnd}: final loss {curve[-1]!r} "
                            f"!= reference {ref!r} (rtol {LOSS_RTOL})")
    return failed, msgs


def check_eval(outputs, pooled: dict, seed: int, reference: dict):
    """Every per-image IoU in [0, 1]; each image scores the same in every
    round; on the default seed the IoU pooled over all images matches the
    reference within IOU_ATOL."""
    failed, msgs = 0, []
    first = {}
    for rnd, dec, (i, per_class) in outputs:
        if not all(0.0 <= v <= 1.0 for v in per_class):  # also rejects nan
            failed += 1
            msgs.append(f"eval {dec} round {rnd} image {i}: IoU {per_class} outside [0, 1]")
            continue
        key = (dec, i)
        if key not in first:
            first[key] = per_class
        elif per_class != first[key]:
            failed += 1
            msgs.append(f"eval {dec} round {rnd} image {i}: IoU differs from round 0")
    if seed == DEFAULT_SEED:
        for dec, per_class in pooled.items():
            ref = reference["eval_per_class_iou"][dec]
            if len(per_class) != len(ref) or any(
                    not abs(a - b) <= IOU_ATOL for a, b in zip(per_class, ref)):
                failed += 1
                msgs.append(f"eval {dec}: pooled IoU {per_class} != reference {ref}")
    return failed, msgs


def search_lists(results: dict) -> dict:
    """schedule_search output as plain rate lists keyed 'n,K,rf'."""
    return {",".join(map(str, q)): [[s.kernel] + list(s.rates) for s in found]
            for q, found in results.items()}


def check_search(sc, outputs, reference: dict):
    """Every query's result list equals the reference. The first pass's
    results are also checked one by one, outside any timed region: accepted
    by the max-gap rule, reaching the rf target, and hole-free by the
    footprint oracle."""
    failed, msgs = 0, []
    ref = reference["search"]
    for rnd, _, results in outputs:
        for key, got in search_lists(results).items():
            if got != ref[key]:
                failed += 1
                msgs.append(f"search pass {rnd} query {key}: result list differs "
                            f"from reference ({len(got)} vs {len(ref[key])} schedules)")
    if outputs:
        hdc = sc.hdc
        for (n, k, rf), found in outputs[0][2].items():
            bad = [s.rates for s in found
                   if not (len(s.rates) == n and s.kernel == k
                           and hdc.max_distance(s)[1]
                           and hdc.rf_increase_for_rates(s.rates, k) >= rf
                           and hdc.footprint(s).holes() == 0)]
            if bad:
                failed += 1
                msgs.append(f"search query {n},{k},{rf}: {len(bad)} results fail "
                            f"the rule, rf or hole check, e.g. {bad[0]}")
    return failed, msgs


class CountMismatch(RuntimeError):
    """An exact count did not repeat bit for bit."""


def check_counts(counts: dict, reference: dict) -> dict:
    """counts maps a metric name to the values it took in each repetition
    within this run. Each must repeat exactly and equal the recorded
    reference; returns the single value of each."""
    out = {}
    for name, values in counts.items():
        if len(set(values)) != 1:
            raise CountMismatch(f"{name} differs between repetitions: {sorted(set(values))}")
        ref = reference["counts"][name]
        if values[0] != ref:
            raise CountMismatch(f"{name} = {values[0]!r}, recorded reference {ref!r}")
        out[name] = values[0]
    return out
