"""Command-line front end.

Verbs: check, footprint, rf, search, duc-demo, train, eval.

Exit codes: 0 success (for `check`: schedule valid); 1 usage error (bad
flags, an image size or class count that does not fit the net, a malformed
net.json or one whose layer entries its topology does not build, a `search`
over hdc.SEARCH_MAX_TUPLES candidate tuples or SEARCH_MAX_LAYERS layers,
refused before any work unless its target is past the RF bound), a file
that cannot be read or written, or out of memory (a net too wide to
allocate, from --channels or a net.json width); 2 schedule invalid (`check`,
gridding holes predicted) or a failed equivalence (`duc-demo`); 3 training
diverged (non-finite loss or parameter; --out and --dump-data are not
made). Every failure prints one line to stderr. All
output is deterministic for fixed flags and seed; numbers are printed in
shortest round-trip form.

The SEGCONV_OUT environment variable overrides the default output directory
used when --out is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .conv import ConvLayer, ConvSpec, TransposedConvSpec, transposed_conv_forward
from .data import gen_thin_structures, write_sample_pgm
from .hdc import (
    DilationSchedule,
    coverage_report,
    footprint,
    rf_increase_for_rates,
    schedule_report,
    schedule_search,
    write_footprint,
)
from .tensor import Rng, he_init
from .train import (
    SgdConfig,
    ToyNet,
    TrainingDiverged,
    evaluate,
    load_net,
    poly_lr,
    save_net,
    train,
)
from .upsample import (
    DucSpec,
    duc_forward,
    duc_rearrange,
    duc_rearrange_inverse,
    duc_weights_from_transposed,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_DIVERGED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; remap to 1
        raise UsageError(message)


def _parse_rates(text: str) -> tuple[int, ...]:
    """Comma-separated integers; DilationSchedule rejects a rate < 1."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"rates must be comma-separated integers, got {text!r}")


def _default_out(sub: str) -> Path:
    return Path(os.environ.get("SEGCONV_OUT", "segconv_out")) / sub


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, allow_nan=False))


def _check_size(size: int, d: int) -> None:
    """Unless d divides the image side, the logits miss the label grid."""
    if size % d:
        raise UsageError(f"--size {size} is not a multiple of the net's "
                         f"downsampling factor d={d}")


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    sched = DilationSchedule(rates=_parse_rates(args.rates), kernel=args.kernel)
    report = schedule_report(sched)
    _emit(report)
    return EXIT_OK if report["valid"] else EXIT_INVALID


def cmd_footprint(args) -> int:
    sched = DilationSchedule(rates=_parse_rates(args.rates), kernel=args.kernel)
    fp = footprint(sched)
    out = Path(args.out) if args.out else _default_out(f"footprint.{args.format}")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_footprint(out, fp, args.format)
    holes, coverage, gridding = coverage_report(fp)
    _emit({
        "rates": list(sched.rates),
        "K": sched.kernel,
        "side": fp.side,
        "total": fp.total(),
        "holes": holes,
        "coverage_fraction": coverage,
        "gridding_fraction": gridding,
        "out": str(out),
    })
    return EXIT_OK


def cmd_rf(args) -> int:
    sched = DilationSchedule(rates=_parse_rates(args.rates), kernel=args.kernel)
    _emit({
        "rates": list(sched.rates),
        "K": sched.kernel,
        "rf_increase": rf_increase_for_rates(sched.rates, sched.kernel),
        "per_layer": [(sched.kernel - 1) * r for r in sched.rates],
    })
    return EXIT_OK


def cmd_search(args) -> int:
    results = schedule_search(args.layers, args.kernel, args.rf_target)
    _emit({
        "layers": args.layers,
        "K": args.kernel,
        "rf_target": args.rf_target,
        "schedules": [
            {"rates": list(s.rates),
             "rf_increase": rf_increase_for_rates(s.rates, s.kernel)}
            for s in results
        ],
    })
    return EXIT_OK


def cmd_duc_demo(args) -> int:
    rng = Rng(args.seed)
    spec = DucSpec(d=args.d, classes=args.classes, cell=args.cell)
    feats = he_init((1, args.channels, args.size, args.size), args.channels, rng)

    conv = ConvLayer.initialized(
        ConvSpec(k=3, r=1, stride=1, c_in=args.channels,
                 c_out=spec.conv_channels, pad=1), rng)
    out = duc_forward(feats, conv, spec)

    pre = he_init((1, spec.conv_channels, args.size, args.size),
                  spec.conv_channels, rng)
    roundtrip = duc_rearrange_inverse(duc_rearrange(pre, spec), spec)
    roundtrip_ok = bool(np.array_equal(roundtrip, pre))

    tspec = TransposedConvSpec(k=args.d, stride=args.d, c_in=args.channels,
                               c_out=args.classes, pad=0)
    tlayer = ConvLayer.initialized(tspec, rng)
    tlayer.bias[:] = rng.normal(args.classes)
    duc_layer, duc_spec = duc_weights_from_transposed(tlayer)
    same = bool(np.array_equal(
        transposed_conv_forward(feats, tlayer),
        duc_forward(feats, duc_layer, duc_spec),
    ))

    _emit({
        "d": args.d,
        "classes": args.classes,
        "cell": args.cell,
        "feature_shape": list(feats.shape),
        "conv_channels": spec.conv_channels,
        "output_shape": list(out.shape),
        "rearrange_roundtrip_ok": roundtrip_ok,
        "matches_transposed_conv": same,
    })
    return EXIT_OK if roundtrip_ok and same else EXIT_INVALID


def _gen_dataset(count, args, seed):
    """Pure, and checks --thickness and --classes: run it before any mkdir."""
    rng = Rng(seed)
    return gen_thin_structures(count, args.size, args.size, args.thickness,
                               args.classes, rng)


def cmd_train(args) -> int:
    sched = DilationSchedule(rates=_parse_rates(args.schedule), kernel=args.kernel)
    net = ToyNet.build(d=args.d, schedule=sched, decoder=args.decoder,
                       classes=args.classes, seed=args.seed,
                       width=args.channels, cell=args.cell)
    _check_size(args.size, net.d)
    for flag, value, least in (("--train-size", args.train_size, 1),
                               ("--batch", args.batch, 1), ("--iters", args.iters, 0)):
        if value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")
    cfg = SgdConfig(base_lr=args.lr, power=0.9, max_iter=args.iters,
                    momentum=args.momentum, weight_decay=args.weight_decay,
                    batch=args.batch, seed=args.seed, mean_loss=args.mean_loss)
    data = _gen_dataset(args.train_size, args, args.data_seed)

    # TrainingDiverged reports a blow-up; numpy's overflow warnings would bury it
    with np.errstate(over="ignore", invalid="ignore"):
        curve = train(net, data, cfg) if args.iters > 0 else []

    # a run that diverged has raised by now and leaves no directory behind
    out = Path(args.out) if args.out else _default_out("train")
    out.mkdir(parents=True, exist_ok=True)
    if args.dump_data:
        dump = Path(args.dump_data)
        dump.mkdir(parents=True, exist_ok=True)
        for i, s in enumerate(data):
            write_sample_pgm(s, dump / f"sample{i:04d}")
    lines = ["iteration,lr,loss"]
    for it, loss in enumerate(curve):
        lines.append(f"{it},{poly_lr(it, cfg)!r},{loss!r}")
    (out / "loss_curve.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    save_net(out / "net", net)
    config = {k: v for k, v in vars(args).items()
              if k not in ("verb", "func", "out", "dump_data")}
    config.update(schedule=list(sched.rates), version=__version__)
    (out / "config.json").write_text(
        json.dumps(config, sort_keys=True, indent=1) + "\n", encoding="ascii")
    _emit({
        "out": str(out),
        "iterations": len(curve),
        "final_loss": curve[-1] if curve else None,
    })
    return EXIT_OK


def _json_iou(v: float):
    """IoU for stdout: nan (class absent from labels and predictions) is null."""
    return None if np.isnan(v) else v


def cmd_eval(args) -> int:
    if args.eval_size < 1:
        raise UsageError(f"--eval-size must be >= 1, got {args.eval_size}")
    net = load_net(Path(args.net) / "net" if (Path(args.net) / "net").exists()
                   else args.net)
    _check_size(args.size, net.d)
    if args.classes != net.classes:
        raise UsageError(f"--classes {args.classes} does not match the net's "
                         f"{net.classes} classes")
    samples = _gen_dataset(args.eval_size, args, args.data_seed)
    out = Path(args.out) if args.out else _default_out("eval")
    out.mkdir(parents=True, exist_ok=True)
    per_class, mean = evaluate(net, samples, oracle=args.oracle)
    lines = ["class,iou"]
    for c, iou in enumerate(per_class):
        lines.append(f"{c},{iou!r}")
    lines.append(f"mean,{mean!r}")
    (out / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    _emit({
        "per_class_iou": [_json_iou(v) for v in per_class],
        "miou": _json_iou(mean),
        "oracle": args.oracle,
        "samples": args.eval_size,
        "out": str(out),
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_data_flags(p, default_count, count_flag):
    p.add_argument(count_flag, dest=count_flag.strip("-").replace("-", "_"),
                   type=int, default=default_count)
    p.add_argument("--size", type=int, default=32, help="image side in pixels")
    p.add_argument("--thickness", type=int, default=1)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--data-seed", type=int, default=17)


def build_parser() -> _Parser:
    parser = _Parser(prog="segconv", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="validate a dilation-rate schedule")
    p.add_argument("--rates", required=True)
    p.add_argument("--kernel", type=int, default=3)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("footprint", help="render the exact contribution footprint")
    p.add_argument("--rates", required=True)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("pgm", "csv", "json"), default="pgm")
    p.set_defaults(func=cmd_footprint)

    p = sub.add_parser("rf", help="receptive-field increase of a schedule")
    p.add_argument("--rates", required=True)
    p.add_argument("--kernel", type=int, default=3)
    p.set_defaults(func=cmd_rf)

    p = sub.add_parser("search", help="enumerate valid hole-free schedules")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--rf-target", type=int, required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("duc-demo", help="demonstrate the sub-pixel decode path")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--cell", type=int, default=1)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_duc_demo)

    p = sub.add_parser("train", help="train the toy net on synthetic data")
    p.add_argument("--decoder", choices=("duc", "bilinear", "deconv"), default="duc")
    p.add_argument("--schedule", default="1,2,3")
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--out", default=None)
    p.add_argument("--lr", type=float, default=2.5e-4)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=5e-4)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--cell", type=int, default=1)
    p.add_argument("--mean-loss", action="store_true")
    p.add_argument("--dump-data", default=None)
    _add_data_flags(p, 200, "--train-size")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained net (per-class IoU, mIoU)")
    p.add_argument("--net", required=True, help="directory written by train")
    p.add_argument("--out", default=None)
    p.add_argument("--oracle", action="store_true",
                   help="score labels against themselves (sanity mode)")
    _add_data_flags(p, 50, "--eval-size")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDiverged as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED


def entrypoint() -> None:  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
