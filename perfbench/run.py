#!/usr/bin/env python3
"""segconv benchmark: one command that runs the train, eval and search stages,
checks their outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

--workload train|eval picks the conv stage that gets the larger share of the
measured time; search always gets 45% (see README.md). Every run executes
all three stages. --trace 0 prints the end-to-end metrics, timings scaled to
a reference machine speed (speed.py); --trace 1 the per-layer metrics of a
separate traced run. The last line of stdout is one JSON object: correct,
attempted, failed, metrics. The full record (environment, sample counts,
tails, speed factor, check messages) is written to perfbench/out/, and a
traced run also writes its spans there.

Exit codes: 0 all checks passed, 1 an output check or exact count failed
(the result line still says why), 2 usage error or no segconv sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("train", "eval")  # each names the stage that gets PRIMARY_SHARE
SEARCH_SHARE = 0.45  # of --seconds, in every workload: its samples are long
PRIMARY_SHARE = 0.35  # of --seconds; the other conv stage gets the rest
SETUP_SHARE = 0.05  # of --seconds, on top, for repeated set-ups
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def cap_blas_threads(nproc: int) -> int:
    """Cap the BLAS thread pools at nproc through this process's environment;
    must run before numpy is imported. Returns the thread count set."""
    threads = nproc
    for var in BLAS_THREAD_VARS:
        try:
            threads = min(threads, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def load_segconv():
    """Import segconv from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "segconv" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"segconv.{name}")
            for name in ("train", "upsample", "hdc", "data", "tensor")}
    if Path(mods["train"].__file__).resolve().parent != (src / "segconv").resolve():
        return None
    return SimpleNamespace(**mods)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout read from .git directly; None outside a git repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, nproc: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc, "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": threads, "git_commit": git_commit(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def stage_budgets(workload: str, seconds: float) -> dict:
    rest = 1.0 - SEARCH_SHARE - PRIMARY_SHARE
    budgets = {w: seconds * (PRIMARY_SHARE if w == workload else rest) for w in WORKLOADS}
    budgets["search"] = seconds * SEARCH_SHARE
    budgets["setup"] = seconds * SETUP_SHARE
    return budgets


def run(args, sc, env: dict) -> int:
    import workloads as wl
    from report import accepted_per_pass, end_to_end, per_layer, speed_factor
    from spans import SpanLog
    from speed import SpeedProbe

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    log = SpanLog() if args.trace else None

    t0 = perf_counter()
    inputs = wl.setup(sc, args.seed, log)
    first_setup_s = perf_counter() - t0
    probe = SpeedProbe()
    stages = wl.run_stages(sc, inputs, stage_budgets(args.workload, args.seconds), log,
                           probe)
    stages["setup"].samples.setdefault("setup", []).append(first_setup_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factor = speed_factor(probe.samples)

    # output checks, outside every timed region
    pooled = {dec: sc.train.evaluate(net, inputs.eval_data)[0]
              for dec, net in inputs.eval_nets.items()}
    failed, messages = 0, []
    for f, m in (wl.check_train(stages["train"].outputs, args.seed, reference),
                 wl.check_eval(stages["eval"].outputs, pooled, args.seed, reference),
                 wl.check_search(sc, stages["search"].outputs, reference)):
        failed += f
        messages += m
    attempted = sum(s.ops for s in stages.values())

    counts = {"hdc.accepted": accepted_per_pass(stages["search"])}
    if args.trace:
        n_enc = len(inputs.eval_nets["duc"].encoder_layers)
        metrics = per_layer(log, stages, n_enc, counts)
    else:
        metrics = end_to_end(stages, peak_rss_mb, factor)
    try:
        wl.check_counts(counts, reference)
    except wl.CountMismatch as exc:
        failed += 1
        messages.append(f"exact count: {exc}")
        print(f"perfbench: exact count did not repeat: {exc}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if log is not None:
        log.save(OUT_DIR / f"{stem}-spans.npz")
    record = {"environment": env, "correct": failed == 0, "attempted": attempted,
              "failed": failed, "messages": messages,
              "rounds": {n: s.rounds for n, s in stages.items()},
              "speed": {"factor": factor, "n": len(probe.samples)},
              "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"speed factor = {factor!r} "
          f"(calibration median of {len(probe.samples)})")
    for name, entry in metrics.items():
        line = f"{name} = {entry['value']!r} {entry['unit']}"
        if entry.get("n", 1) > 1:
            line += (f" (median of {entry['n']} at reference speed; "
                     f"as measured {entry['raw']!r}")
            if entry["tail"] is not None:
                line += f"; p{entry['tail_pct']:g} {entry['tail']!r}"
            line += ")"
        print(line)
    for msg in messages:
        print("FAILED: " + msg)
    result = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    nproc = len(os.sched_getaffinity(0))
    threads = cap_blas_threads(nproc)
    sc = load_segconv()
    if sc is None:
        print(f"perfbench: no segconv sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    return run(args, sc, environment(args, nproc, threads))


if __name__ == "__main__":
    sys.exit(main())
