"""Command-line entry point: gen / train / eval / export / infer / bench
/ ablate.

Run configuration merges ModelConfig + TrainConfig + data parameters
from an optional flat ``key = value`` config file with command-line
overrides; unknown keys are rejected and every run logs the fully
resolved configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .data import (ROTATIONS, SyntheticDataset, _read_sample, load_dataset,
                   save_dataset, split_dataset)
from .errors import CheckpointError, ConfigError, StormkanError
from .model import ABLATIONS, COMPRESSED, ModelConfig, build_model
from .staticgraph import Session, bench, export, load_graph, save_graph
from .tape import Tape
from .training import (TrainConfig, compute_metrics, denormalize, evaluate,
                       mae, model_from_checkpoint, rmse, train,
                       write_checkpoint)

_MODEL_FIELDS = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_DATA_FIELDS = {"train_frac": "float"}


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"not a bool: {text!r}")
    return text.lower() == "true"


_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str}


def _coerce(key: str, raw: str):
    """Parse a config value by its field's declared type."""
    kind = (_MODEL_FIELDS.get(key) or _TRAIN_FIELDS.get(key)
            or _DATA_FIELDS.get(key))
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    text = raw.strip()
    try:
        value = _PARSERS[kind](text)
    except ValueError as exc:
        raise ConfigError(f"{key} must be {kind}, got {text!r}") from exc
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fp:
        try:
            lines = fp.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {body!r}")
        key, raw = body.split("=", 1)
        values[key.strip()] = _coerce(key.strip(), raw)
    return values


@dataclasses.dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    train_frac: float = 0.7

    def as_dict(self) -> dict:
        return {"model": dataclasses.asdict(self.model),
                "train": dataclasses.asdict(self.train),
                "train_frac": self.train_frac}


def resolve_run_config(config_path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if config_path:
        values.update(parse_config_file(config_path))
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    model_kwargs, train_kwargs, extra = {}, {}, {}
    for key, val in values.items():
        if key in _MODEL_FIELDS:
            model_kwargs[key] = val
        elif key in _TRAIN_FIELDS:
            train_kwargs[key] = val
        elif key in _DATA_FIELDS:
            extra[key] = val
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return RunConfig(ModelConfig(**model_kwargs), TrainConfig(**train_kwargs),
                     **extra)


# the flags that set a run's budget, each a TrainConfig or data field
_RUN_FLAGS = {"lr": float, "batch": int, "max_epochs": int, "seed": int,
              "train_frac": float}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    for name, kind in _RUN_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind)


def _run_config(args) -> RunConfig:
    """The RunConfig of --config with the run flags given overriding it."""
    return resolve_run_config(args.config, {name: getattr(args, name)
                                            for name in _RUN_FLAGS})


def _log_config(run: RunConfig) -> None:
    print("# resolved config:")
    for section, block in run.as_dict().items():
        if isinstance(block, dict):
            for key in sorted(block):
                print(f"#   {section}.{key} = {block[key]}")
        else:
            print(f"#   {section} = {block}")


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    ds = SyntheticDataset(range(args.storms), args.steps_per_storm,
                          seed=args.seed, image_hw=args.image_hw,
                          augment=args.augment)
    count = save_dataset(args.out, ds)
    print(f"wrote {count} samples to {args.out} "
          f"({'with' if args.augment else 'no'} rotations)")
    return 0


# each --variant as the ModelConfig fields it replaces
_VARIANT_FIELDS = {"full": {}, "deploy": {"variant": "deploy"},
                   "s": COMPRESSED}


def _apply_variant(model_cfg: ModelConfig, variant: str | None,
                   ablate: str | None) -> ModelConfig:
    kwargs = dict(_VARIANT_FIELDS[variant or "full"])
    if ablate:
        for flag in ablate.split(","):
            flag = flag.strip()
            if flag not in ABLATIONS:
                raise ConfigError(f"unknown ablation flag {flag!r} "
                                  f"(choose from {tuple(ABLATIONS)})")
            kwargs.update(ABLATIONS[flag])
    return dataclasses.replace(model_cfg, **kwargs)


def cmd_train(args) -> int:
    run = _run_config(args)
    run = dataclasses.replace(
        run, model=_apply_variant(run.model, args.variant, args.ablate))
    _log_config(run)
    samples = load_dataset(args.data)
    train_set, val_set, _ = split_dataset(samples, run.train_frac,
                                          run.train.seed)
    model = build_model(run.model, seed=run.train.seed)
    log_path = args.log or (args.out + ".log.csv")
    result = train(model, train_set, val_set, run.train, log_path=log_path,
                   quiet=args.quiet)
    write_checkpoint(args.out, model, extra={
        "train_frac": run.train_frac, "train": dataclasses.asdict(run.train)})
    print(f"trained {result.epochs_run} epochs "
          f"(best val loss {result.best_val_loss:.6f} "
          f"at epoch {result.best_epoch}); checkpoint -> {args.out}; "
          f"metrics log -> {log_path}")
    return 0


def _run_record(config: dict) -> tuple[int, float]:
    """(seed, train_frac) of a checkpoint's ``run`` record, each its
    default where the record has none."""
    run = config.get("run", {})
    train_cfg = run.get("train", {}) if isinstance(run, dict) else None
    if not isinstance(train_cfg, dict):
        raise CheckpointError("checkpoint run record must be an object "
                              "whose 'train' is an object")
    values = {"seed": train_cfg.get("seed", 0),
              "train_frac": run.get("train_frac", 0.7)}
    for name, value in values.items():
        kinds = (int,) if name == "seed" else (int, float)
        if type(value) not in kinds or not math.isfinite(value):
            raise CheckpointError(f"checkpoint run record: {name} {value!r} "
                                  f"is not a finite {kinds[-1].__name__}")
    return values["seed"], float(values["train_frac"])


def cmd_eval(args) -> int:
    model, config = model_from_checkpoint(args.ckpt)
    seed, train_frac = _run_record(config)
    samples = load_dataset(args.data)
    splits = dict(zip(("train", "val", "test"),
                      split_dataset(samples, train_frac, seed)))
    subset = splits[args.split]
    if not subset:
        raise ConfigError(f"split {args.split!r} is empty")
    _, metrics = evaluate(model, subset)

    train_msw = np.array([s.y_msw_norm for s in splits["train"]])
    train_rmw = np.array([s.y_rmw_norm for s in splits["train"]])
    t_msw = np.array([s.y_msw_norm for s in subset])
    t_rmw = np.array([s.y_rmw_norm for s in subset])
    baseline = compute_metrics(np.full_like(t_msw, train_msw.mean()),
                               np.full_like(t_rmw, train_rmw.mean()),
                               t_msw, t_rmw)
    record = {
        "split": args.split,
        "n": len(subset),
        "mae_msw_kt": metrics.mae_msw_kt,
        "rmse_msw_kt": metrics.rmse_msw_kt,
        "mae_rmw_nmi": metrics.mae_rmw_nmi,
        "rmse_rmw_nmi": metrics.rmse_rmw_nmi,
        "baseline_mae_msw_kt": baseline.mae_msw_kt,
        "baseline_rmse_msw_kt": baseline.rmse_msw_kt,
        "baseline_mae_rmw_nmi": baseline.mae_rmw_nmi,
        "baseline_rmse_rmw_nmi": baseline.rmse_rmw_nmi,
    }
    print(f"{args.split} ({len(subset)} samples):")
    print(f"  MSW  MAE {metrics.mae_msw_kt:7.2f} kt   "
          f"RMSE {metrics.rmse_msw_kt:7.2f} kt")
    print(f"  RMW  MAE {metrics.mae_rmw_nmi:7.2f} nmi  "
          f"RMSE {metrics.rmse_rmw_nmi:7.2f} nmi")
    print(f"  mean-predictor baseline: MSW MAE {baseline.mae_msw_kt:.2f} kt, "
          f"RMW MAE {baseline.mae_rmw_nmi:.2f} nmi")
    out_path = args.out or (args.ckpt + f".eval-{args.split}.json")
    with open(out_path, "w") as fp:
        json.dump(record, fp, indent=2, sort_keys=True)
    print(f"  record -> {out_path}")
    return 0


def cmd_export(args) -> int:
    model, _ = model_from_checkpoint(args.ckpt)
    graph = export(model)
    payload = save_graph(graph)
    with open(args.out, "wb") as fp:
        fp.write(payload)
    print(f"exported static graph: {len(graph.nodes)} nodes, "
          f"{graph.parameter_count()} constant values, "
          f"{len(payload)} bytes -> {args.out}")
    return 0


def cmd_infer(args) -> int:
    with open(args.graph, "rb") as fp:
        graph = load_graph(fp.read())
    with open(args.input, "rb") as fp:
        x_seq, x_img = _read_sample(fp)
    session = Session(graph)
    out = session.run({
        "x_seq_flat": x_seq.reshape(1, -1).astype(np.float32),
        "x_img": x_img[None].astype(np.float32),
    })
    msw_norm = float(out["y_msw"][0, 0])
    rmw_norm = float(out["y_rmw"][0, 0])
    msw = float(np.clip(denormalize(msw_norm, "msw"), 19.0, 170.0))
    rmw = float(np.clip(denormalize(rmw_norm, "rmw"), 5.0, 200.0))
    print(f"MSW: {msw:.1f} kt")
    print(f"RMW: {rmw:.1f} nmi")
    if args.raw:
        print(f"raw normalized: msw={msw_norm!r} rmw={rmw_norm!r}")
        print(f"raw denormalized: msw={denormalize(msw_norm, 'msw')!r} kt "
              f"rmw={denormalize(rmw_norm, 'rmw')!r} nmi")
    return 0


def cmd_bench(args) -> int:
    with open(args.graph, "rb") as fp:
        payload = fp.read()
    graph = load_graph(payload)
    report = bench(graph, n_warmup=args.warmup, n_runs=args.runs)
    report["graph_bytes"] = len(payload)
    print(f"latency per sample: mean {report['mean_ms']:.2f} ms, "
          f"p50 {report['p50_ms']:.2f} ms, p95 {report['p95_ms']:.2f} ms "
          f"({report['runs']} runs, {report['warmup']} warmup)")
    print(f"parameters: {report['param_count']}; "
          f"serialized size: {report['graph_bytes']} bytes; "
          f"steady-state allocs: {report['steady_state_allocs']}; "
          f"session buffer: {report['buffer_bytes']} bytes; "
          f"measured allocation per run: "
          f"{report['alloc_mib_per_run']:.3f} MiB")
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(report, fp, indent=2, sort_keys=True)
        print(f"report -> {args.out}")
    return 0


# every MLP swap at once, each ablation alone, then the reference
ABLATE_MATRIX = [
    ("all_mlp", {k: v for name, repl in ABLATIONS.items()
                 if name.startswith("mlp_") for k, v in repl.items()}),
    *ABLATIONS.items(),
    ("full", {}),
]


def cmd_ablate(args) -> int:
    run = _run_config(args)
    _log_config(run)
    samples = load_dataset(args.data)
    train_set, val_set, test_set = split_dataset(samples, run.train_frac,
                                                 run.train.seed)
    eval_set = test_set if test_set else val_set
    print(f"# shared budget: seed={run.train.seed} lr={run.train.lr} "
          f"batch={run.train.batch} max_epochs={run.train.max_epochs} "
          f"train={len(train_set)} val={len(val_set)} eval={len(eval_set)}")
    rows = []
    for name, flags in ABLATE_MATRIX:
        cfg = dataclasses.replace(run.model, **flags)
        model = build_model(cfg, seed=run.train.seed)
        train(model, train_set, val_set, run.train)
        _, metrics = evaluate(model, eval_set)
        rows.append((name, metrics))
        print(f"# done: {name}")
    header = (f"{'variant':<16}{'MSW MAE':>9}{'MSW RMSE':>10}"
              f"{'RMW MAE':>9}{'RMW RMSE':>10}")
    print(header)
    lines = [header]
    for name, m in rows:
        tag = " (reference)" if name == "full" else ""
        line = (f"{name:<16}{m.mae_msw_kt:9.2f}{m.rmse_msw_kt:10.2f}"
                f"{m.mae_rmw_nmi:9.2f}{m.rmse_rmw_nmi:10.2f}{tag}")
        print(line)
        lines.append(line)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write("\n".join(lines) + "\n")
        print(f"table -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stormkan",
        description="Spline-network cyclone estimator: synthetic data, "
                    "training, static-graph deployment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--storms", type=int, required=True)
    p.add_argument("--steps-per-storm", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-hw", type=int, default=156)
    p.add_argument("--augment", action="store_true",
                   help="add the three rotated copies per sample")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_run_flags(p)
    p.add_argument("--variant", choices=list(_VARIANT_FIELDS))
    p.add_argument("--ablate", help="comma-separated ablation flags")
    p.add_argument("--log", help="metrics log path")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test"],
                   default="test")
    p.add_argument("--out", help="JSON record path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="lower a deploy checkpoint to a graph")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("infer", help="run a static graph on one sample")
    p.add_argument("--graph", required=True)
    p.add_argument("--input", required=True, help="sample .kft file")
    p.add_argument("--raw", action="store_true",
                   help="also print unclamped values")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="latency statistics for a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", help="train the ablation matrix")
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="table output path")
    _add_run_flags(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StormkanError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
