"""Command-line front end.

Subcommands: gen, train, eval, ablate, probe, stats, sdf.  gen and
train accept --config JSON_FILE; explicit flags override config file
values, which are checked first.  Exit codes: 0 success, 1 I/O,
data-integrity or out-of-memory failure (one machine-parsable line on
stderr), 2 usage error.

The library computes and returns values; this module writes every
report file from them, through the JSON and CSV writers in
``grasp.errors``, which fix the layout of each.  The eval, probe and stats
JSON embed ``config`` (the command, its seed and the model
configuration) and ``version``; ``sdf_meta.json`` embeds ``version``;
no CSV embeds either.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, evalkit, probe as probe_mod
from .errors import ConfigError, GraspError, parse_json_object, write_csv, write_json
from .geometry import read_mask, sdf
from .model import GraspConfig, GraspModel, gate_of, load_checkpoint
from .pgm import write_pgm
from .synthdata import SPLITS, SceneConfig, generate_dataset, read_dataset, write_dataset
from .training import TrainConfig, train


_CONFIG_SECTIONS = ("scene", "model", "train")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path, "rb") as fh:
        config = parse_json_object(fh.read(), f"{path}: config", GraspError)
    unknown = sorted(set(config) - set(_CONFIG_SECTIONS))
    if unknown:
        raise ConfigError(f"{path}: unknown config sections {unknown}; "
                          f"expected {list(_CONFIG_SECTIONS)}")
    return config


def _echo(args, model) -> dict:
    """The ``config`` and ``version`` keys of a report on ``model``."""
    config = {"version": __version__, "command": args.command,
              "seed": getattr(args, "seed", None), "model": model.config.to_dict()}
    return {"config": config, "version": __version__}


# -- subcommands -------------------------------------------------------------


def cmd_gen(args) -> int:
    file_cfg = _load_config_file(args.config)
    scene_cfg = SceneConfig.from_dict(file_cfg.get("scene", {}))
    if args.size is not None:
        scene_cfg = replace(scene_cfg, size=args.size)
    instances = generate_dataset(args.n, args.seed, scene_cfg)
    write_dataset(args.out, instances, args.seed, scene_cfg, split=args.split)
    print(f"wrote {len(instances)} instances to {args.out}")
    return 0


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    model_cfg = GraspConfig.from_dict(file_cfg.get("model", {}))
    flags = {"steps": args.steps, "batch": args.batch, "lr": args.lr, "seed": args.seed}
    train_cfg = replace(TrainConfig.from_dict(file_cfg.get("train", {})),
                        **{k: v for k, v in flags.items() if v is not None})
    _, instances = read_dataset(args.data)
    model = GraspModel(model_cfg, seed=train_cfg.seed)
    loss_csv = args.loss_csv or (args.out + ".loss.csv")
    for path in (args.out, loss_csv):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    result = train(model, instances, train_cfg, ckpt_path=args.out, loss_csv_path=loss_csv)
    print(f"trained {result.steps} steps; final loss {result.final_loss:.6f}; "
          f"checkpoint {args.out}")
    return 0


def _mious(report) -> str:
    """A report's two mIoUs as eval and ablate print them; "n/a" when none is occluded."""
    occ = "n/a" if report.occ_miou is None else f"{report.occ_miou:.4f}"
    return f"full mIoU {report.full_miou:.4f}, occ mIoU {occ}"


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    _, instances = read_dataset(args.data)
    override = "config" if args.gate_override is None else args.gate_override
    report = evalkit.evaluate(
        model,
        instances,
        protocol=args.protocol,
        gate_override=override,
        use_postprocess=args.pp,
        use_two_pass=args.two_pass,
        threshold=args.threshold,
        eval_seed=args.seed,
        occ_metric=args.occ_metric,
    )
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "report.json"), {**report.to_dict(), **_echo(args, model)})
    columns = ("index", "shape_class", "occ_ratio", "vm_iou", "full_iou", "occ_iou", "mean_gate")
    write_csv(os.path.join(args.out, "report.csv"), columns,
               ([row[c] for c in columns] for row in report.rows))
    print(f"{report.protocol}: {_mious(report)} "
          f"({report.n_instances} instances, {report.n_occluded} occluded)")
    return 0


def cmd_ablate(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    _, instances = read_dataset(args.data)
    rows = []
    for override, report in evalkit.ablate(
        model, instances, protocol=args.protocol, eval_seed=args.seed,
        use_postprocess=args.pp, threshold=args.threshold,
    ):
        label = "none" if override is None else repr(override)
        rows.append((label, report.full_miou, report.occ_miou))
        print(f"gate={label}: {_mious(report)}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    write_csv(args.out, ("gate_override", "full_miou", "occ_miou"), rows)
    return 0


def cmd_probe(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    _, instances = read_dataset(args.data)
    report = probe_mod.probe_report(
        model, instances, lam=args.ridge_lambda, seed=args.seed, test_frac=args.test_frac
    )
    os.makedirs(args.out, exist_ok=True)
    payload = {k: v for k, v in report.items() if k != "pairs"}
    write_json(os.path.join(args.out, "probe.json"), {**payload, **_echo(args, model)})
    write_csv(os.path.join(args.out, "probe_pairs.csv"), ("true_sdf", "predicted_sdf"),
               report["pairs"])
    for name, res in report["results"].items():
        r2 = "undefined" if res["r2"] is None else f"{res['r2']:.4f}"
        print(f"{name}: R^2 {r2}, sign accuracy {res['sign_accuracy']:.4f}")
    return 0


def cmd_stats(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    _, instances = read_dataset(args.data)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    gate, attention = evalkit.mechanism_stats(model, instances)
    write_json(args.out, {"gate": gate, "attention": attention, **_echo(args, model)})
    print(f"wrote mechanism stats to {args.out}")
    return 0


def cmd_sdf(args) -> int:
    for flag, value in (("--alpha", args.alpha), ("--beta", args.beta)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} {value!r} must be finite")
    mask = read_mask(args.mask)
    field = sdf(mask)
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "sdf.csv"), ("y", "x", "distance", "normalized"),
               ((y, x, field.values[y, x], field.normalized[y, x])
                for y, x in np.ndindex(field.values.shape)))
    # heatmap of the normalized field: -1 -> 0, 0 -> 128, +1 -> 255
    write_pgm(os.path.join(args.out, "sdf.pgm"),
              np.clip(np.rint((field.normalized + 1.0) * 127.5), 0, 255).astype(np.uint8))
    gate = gate_of(args.alpha, args.beta, field.normalized)
    write_pgm(os.path.join(args.out, "gate.pgm"),
              np.clip(np.rint(gate * 255.0), 0, 255).astype(np.uint8))
    write_json(
        os.path.join(args.out, "sdf_meta.json"),
        {
            "mask": args.mask,
            "alpha": args.alpha,
            "beta": args.beta,
            "diagonal": field.diagonal,
            "normalized_range": [float(field.normalized.min()), float(field.normalized.max())],
            "version": __version__,
        },
    )
    print(f"wrote SDF exports to {args.out}")
    return 0


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="grasp",
        description="Desk-scale amodal segmentation with gated shape-prototype injection.",
    )
    parser.add_argument("--version", action="version", version=f"grasp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic occlusion dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--n", type=int, required=True, help="number of instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=None, help="square image size")
    p.add_argument("--split", choices=SPLITS, default="train")
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--loss-csv", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_train)

    def eval_like(p):
        p.add_argument("--ckpt", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--protocol", choices=("oracle", "standard"), default="oracle")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--pp", action="store_true", help="union amodal prediction with the input mask")
        p.add_argument("--threshold", type=float, default=0.5)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    eval_like(p)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--gate-override", type=float, default=None)
    p.add_argument("--two-pass", action="store_true")
    p.add_argument("--occ-metric", choices=("head", "amodal_minus_visible"), default="head")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="gate-intervention sweep (none, 0, 0.5, 1)")
    eval_like(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("probe", help="linear probes for occlusion geometry")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ridge-lambda", type=float, default=1.0)
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("stats", help="gate and prototype-attention statistics")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("sdf", help="export the SDF and gate heatmap of a mask")
    p.add_argument("--mask", required=True, help="input mask PGM")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--alpha", type=float, default=2.68, help="gate slope for the heatmap")
    p.add_argument("--beta", type=float, default=0.26, help="gate bias for the heatmap")
    p.set_defaults(fn=cmd_sdf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraspError, OSError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass; name the public one
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error:{kind}:{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
