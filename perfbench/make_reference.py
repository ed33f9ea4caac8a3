#!/usr/bin/env python3
"""Record perfbench/reference.json: the outputs and exact counts of the
default seed that every benchmark run checks against.

    python3 perfbench/make_reference.py

Run it only when a change to segconv is meant to change these outputs, and
say why in the change.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    sys.dont_write_bytecode = True
    run.cap_blas_threads(len(os.sched_getaffinity(0)))
    sc = run.load_segconv()
    if sc is None:
        print("make_reference: no segconv sources found", file=sys.stderr)
        return 2
    import workloads as wl
    from report import accepted_per_pass, per_layer
    from spans import SpanLog, patched, tracing_patches

    seed = wl.DEFAULT_SEED
    log = SpanLog()
    with patched(tracing_patches(log, sc)):
        inputs = wl.setup(sc, seed, log)
    stages = wl.run_stages(sc, inputs, {name: 1e-9 for name in wl.ROUNDS}, log)
    counts = {"hdc.accepted": accepted_per_pass(stages["search"])}
    per_layer(log, stages, len(inputs.eval_nets["duc"].encoder_layers), counts)
    for name, values in counts.items():
        if len(set(values)) != 1:
            print(f"make_reference: {name} does not repeat: {values}", file=sys.stderr)
            return 1
    reference = {
        "seed": seed,
        "final_loss": {dec: curve[-1] for _, dec, curve in stages["train"].outputs},
        "eval_per_class_iou": {dec: sc.train.evaluate(net, inputs.eval_data)[0]
                               for dec, net in inputs.eval_nets.items()},
        "search": wl.search_lists(stages["search"].outputs[0][2]),
        "counts": {name: values[0] for name, values in counts.items()},
    }
    run.REFERENCE.write_text(json.dumps(reference, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
