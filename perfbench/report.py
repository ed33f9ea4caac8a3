"""Metrics of a benchmark run: end-to-end summaries from the timed samples,
per-layer numbers from the spans of the traced rounds."""

from __future__ import annotations

import numpy as np

from spans import SpanTable, median
from speed import REFERENCE_S
from workloads import CRITERION8, DECODERS

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_ABOVE = 10


def speed_factor(speed_samples) -> float:
    """speed.REFERENCE_S over the run's median calibration time: below 1
    when the machine ran slower than the reference."""
    return REFERENCE_S / median(speed_samples)


def summary(samples) -> dict:
    """Median and count of the samples, and the highest percentile of
    TAIL_PERCENTILES with at least TAIL_MIN_ABOVE samples above it (None
    when there are too few samples)."""
    arr = np.asarray(samples, dtype=np.float64)
    out = {"value": median(arr), "n": int(arr.size), "tail_pct": None, "tail": None}
    for pct in TAIL_PERCENTILES:
        if arr.size * (1.0 - pct / 100.0) >= TAIL_MIN_ABOVE:
            out["tail_pct"] = pct
            out["tail"] = float(np.percentile(arr, pct))
            break
    return out


def end_to_end(stages: dict, peak_rss_mb: float, factor: float) -> dict:
    """name -> summary with its unit, for every end-to-end metric. The value
    of a timing is at the reference speed: its median times `factor` (see
    speed_factor). `raw` keeps the median as measured; the tail is as
    measured too."""
    timings = {}
    for dec in DECODERS:
        timings[f"train_ms_per_iter.{dec}"] = (stages["train"].samples[dec], "ms")
    for dec in DECODERS:
        timings[f"eval_ms_per_image.{dec}"] = (stages["eval"].samples[dec], "ms")
    timings["search_s"] = (stages["search"].samples["pass"], "s")
    timings["setup_s"] = (stages["setup"].samples["setup"], "s")
    out = {}
    for name, (samples, unit) in timings.items():
        s = summary(samples)
        out[name] = dict(s, value=s["value"] * factor, raw=s["value"], unit=unit)
    out["peak_rss_mb"] = dict(summary([peak_rss_mb]), unit="MB")
    return out


def per_layer(log, stages: dict, n_encoder: int, counts: dict) -> dict:
    """name -> {value, unit} for every per-layer metric, from the spans of
    the traced rounds. Fills `counts` with the exact counts of each
    repetition (iteration or search pass) for the caller to check."""
    t = SpanTable(log)
    out = {}

    def us(name, stage, variant=None):
        return median(t.dur[t.select(name, stage, variant)]) * 1e6

    def per_call_work(name, stage):
        return median(t.work[t.select(name, stage)])

    # conv: encoder layers during training, identical across decoders
    train_iters = t.iterations_of("train")
    enc_mask = np.zeros(t.name.size, dtype=bool)
    for i in range(n_encoder):
        fwd, bwd = f"train.conv2d_forward.enc{i}", f"train.conv2d_backward.enc{i}"
        f_us, b_us = us(fwd, "train"), us(bwd, "train")
        out[f"conv.forward_us.enc{i}"] = (f_us, "us")
        out[f"conv.backward_us.enc{i}"] = (b_us, "us")
        flops = per_call_work(fwd, "train") + per_call_work(bwd, "train")
        out[f"conv.gflop_s.enc{i}"] = (flops / (f_us + b_us) / 1e3, "GFLOP/s")
        enc_mask |= t.select(fwd, "train") | t.select(bwd, "train")
    flops_per_iter = np.bincount(t.iter[enc_mask], weights=t.work[enc_mask],
                                 minlength=t.n_iterations)[train_iters]
    counts["conv.mflop_per_iter"] = [float(v) / 1e6 for v in flops_per_iter]
    out["conv.mflop_per_iter"] = (counts["conv.mflop_per_iter"][0], "MFLOP")

    # decoders
    out["conv.forward_us.dec0.bilinear"] = (
        us("train.conv2d_forward.dec0", "train", "bilinear"), "us")
    out["conv.backward_us.dec0.bilinear"] = (
        us("train.conv2d_backward.dec0", "train", "bilinear"), "us")
    out["upsample.bilinear_us"] = (us("train.bilinear_upsample", "train", "bilinear"), "us")
    out["upsample.bilinear_backward_us"] = (
        us("train.bilinear_backward", "train", "bilinear"), "us")
    out["upsample.duc_forward_us"] = (us("train.duc_forward.dec0", "train", "duc"), "us")
    out["upsample.duc_backward_us"] = (us("train.duc_backward.dec0", "train", "duc"), "us")
    out["upsample.duc_rearrange_us"] = (us("upsample.duc_rearrange", "train", "duc"), "us")
    out["upsample.duc_rearrange_inverse_us"] = (
        us("upsample.duc_rearrange_inverse", "train", "duc"), "us")
    for i in range(2):
        out[f"upsample.tconv_forward_us.dec{i}"] = (
            us(f"train.transposed_conv_forward.dec{i}", "train", "deconv"), "us")
        out[f"upsample.tconv_backward_us.dec{i}"] = (
            us(f"train.transposed_conv_backward.dec{i}", "train", "deconv"), "us")

    # training step and evaluation, per decoder
    train_stage = stages["train"]
    for dec in DECODERS:
        out[f"train.loss_us.{dec}"] = (us("train.softmax_ce_loss", "train", dec), "us")
        out[f"train.sgd_step_us.{dec}"] = (us("train.sgd_step", "train", dec), "us")
        step_self = t.self_time(t.iterations_of("train", dec), "train.train")
        out[f"train.step_self_us.{dec}"] = (median(step_self) * 1e6, "us")
        out[f"train.predict_us.{dec}"] = (us("train.predict", "eval", dec), "us")
        eval_self = t.self_time(t.iterations_of("eval", dec), "train.evaluate")
        out[f"train.evaluate_self_us.{dec}"] = (median(eval_self) * 1e6, "us")
        overhead = (median(train_stage.traced_samples[dec])
                    - median(train_stage.samples[dec]))
        out[f"train.trace_overhead_ms.{dec}"] = (overhead, "ms")

    # hdc: one repetition is one traced search pass
    passes = sorted({lab[1] for lab in t.labels if lab[0] == "search"})
    md_calls, fp_calls, self_s = [], [], []
    for p in passes:
        md_calls.append(int(t.select("hdc.max_distance", "search", p).sum()))
        fp_calls.append(int(t.select("hdc.footprint", "search", p).sum()))
        self_s.append(float(t.self_time(t.iterations_of("search", p),
                                        "hdc.schedule_search").sum()))
    counts["hdc.max_distance_calls"] = md_calls
    counts["hdc.footprint_calls"] = fp_calls
    out["hdc.max_distance_us"] = (us("hdc.max_distance", "search"), "us")
    out["hdc.max_distance_calls"] = (md_calls[0], "count")
    out["hdc.footprint_us"] = (us("hdc.footprint", "search"), "us")
    out["hdc.footprint_calls"] = (fp_calls[0], "count")
    out["hdc.search_self_s"] = (median(self_s), "s")
    search_stage = stages["search"]
    out["hdc.trace_overhead_s"] = (median(search_stage.traced_samples["pass"])
                                   - median(search_stage.samples["pass"]), "s")
    accepted = counts["hdc.accepted"][0]
    out["hdc.accepted"] = (accepted, "count")
    out["hdc.accept_ratio"] = (accepted / md_calls[0], "ratio")

    # data generation inside set-up
    gen = t.iter_dur[t.iterations_of("setup", "train_data")]
    out["data.gen_ms_per_image"] = (median(gen) * 1e3 / CRITERION8["train_size"], "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def accepted_per_pass(search_stage) -> list[int]:
    return [sum(len(found) for found in results.values())
            for _, _, results in search_stage.outputs]
