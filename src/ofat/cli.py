"""Command-line surface: data generation, teacher init, two-stage training,
budgeted search, evaluation, extraction, and counting.

Structure comes from the YAML run config; flags only carry paths, the
stage, and budget overrides. Every command is deterministic given
(config, seed), and every output file records the config digest and seed.

Exit codes: 0 success, 2 config error, 3 runtime/divergence error,
4 infeasible search budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import yaml

from . import __version__
from .binio import atomic_open
from .checkpoint import file_digest, load_model, save_model
from .config import RunConfig
from .data import load_dataset, make_synthetic_dataset, save_dataset
from .distill import TeacherModel
from .errors import (
    BudgetInfeasibleError,
    ConfigurationError,
    ContractError,
    DimensionError,
    DivergenceError,
)
from .rng import Rng
from .search import evaluate_subnets, random_search, report_scatter, subnet_params, summarize
from .spaces import max_subnet, min_subnet, parse_subnet_spec
from .supernet import count_params, extract_subnet, forward, full_config, reference_forward
from .train import check_teacher_compat, make_teacher, stage1_train, stage2_train, teacher_self_regression_loss

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_BUDGET = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofat",
        description="Once-for-all Transformer: distillation training and budgeted subnet search.",
    )
    parser.add_argument("--version", action="version", version=f"ofat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic train/val dataset files")
    p.add_argument("--config", required=True, help="YAML run config")
    p.add_argument("--out", required=True, help="output directory for train.ofad / val.ofad")

    p = sub.add_parser("init-teacher", help="build (and optionally warm up) the frozen teacher")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="teacher checkpoint path")

    p = sub.add_parser("train", help="run stage 1 or stage 2 supernet training")
    p.add_argument("--config", required=True)
    p.add_argument("--stage", type=int, required=True, choices=(1, 2))
    p.add_argument("--init", help="init checkpoint (stage 2 with non-random ofa_init)")
    p.add_argument("--out", required=True, help="output supernet checkpoint")
    p.add_argument("--log", help="training log CSV (default: <out>.log.csv)")

    p = sub.add_parser("search", help="budgeted random subnet search on a trained supernet")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True, help="trained supernet checkpoint")
    p.add_argument("--max-params", type=int, help="override search.max_params")
    p.add_argument("--out", required=True, help="output prefix: <out>.csv and <out>.summary.yaml")
    p.add_argument("--workers", type=int, default=1,
                   help="ignored, and kept only because the benchmark still passes it: "
                        "evaluation runs on the usable CPUs over the BLAS thread count "
                        "(OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS), and the result is "
                        "the same for any value")

    p = sub.add_parser("extract", help="copy one subnet out of a supernet checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--subnet-spec", required=True,
                   help="min|max|mid|a_base|a_small or 'embed=48,depth=3,heads=2-3-4,ratios=3.5'")
    p.add_argument("--out", required=True, help="standalone checkpoint path")

    p = sub.add_parser("count", help="exact subnet and parameter counting")
    p.add_argument("--config", required=True)
    p.add_argument("--subnets", action="store_true", help="print the exact subnet count")
    p.add_argument("--params", action="store_true", help="print the parameter count of --subnet-spec")
    p.add_argument("--subnet-spec", help="subnet spec for --params")
    p.add_argument("--no-frontend", action="store_true", help="exclude frontend parameters")
    p.add_argument("--no-head", action="store_true", help="exclude prediction-head parameters")

    p = sub.add_parser("eval", help="validation distillation loss of one subnet")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True, help="supernet or extracted-subnet checkpoint")
    p.add_argument("--subnet-spec", help="required for supernet checkpoints, refused for subnet ones")
    p.add_argument("--data", required=True, help="validation dataset file")
    p.add_argument("--bounds", action="store_true",
                   help="also evaluate the min and max subnets (supernet checkpoints only)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigurationError, ContractError, DimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetInfeasibleError as exc:
        print(f"budget infeasible: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DivergenceError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _dispatch(args) -> int:
    handlers = {
        "gen-data": cmd_gen_data,
        "init-teacher": cmd_init_teacher,
        "train": cmd_train,
        "search": cmd_search,
        "extract": cmd_extract,
        "count": cmd_count,
        "eval": cmd_eval,
    }
    return handlers[args.command](args)


def _load_config(args) -> RunConfig:
    path = Path(args.config)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    return RunConfig.from_file(path)


def _sidecar(path, cfg: RunConfig, extra: dict) -> None:
    meta = {"config_digest": cfg.digest(), "seed": cfg.seed, **extra}
    with atomic_open(str(path) + ".meta.json") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _load_teacher(cfg: RunConfig):
    teacher_path = cfg.paths["teacher"]
    if not teacher_path:
        raise ConfigurationError("config paths.teacher must point at a teacher checkpoint")
    return TeacherModel(encoder=load_model(teacher_path, "teacher")[0])


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    tr = cfg.data["train"]
    if tr["n_train_sequences"] == 0 or tr["n_val_sequences"] == 0:
        raise ConfigurationError(
            "train.n_train_sequences and train.n_val_sequences must be positive"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, n, seed in (
        ("train.ofad", tr["n_train_sequences"], cfg.seed),
        ("val.ofad", tr["n_val_sequences"], cfg.seed + 1),
    ):
        dataset = make_synthetic_dataset(seed, n, tr["sequence_length"])
        path = out / name
        save_dataset(path, dataset)
        _sidecar(path, cfg, {"n_sequences": n, "sequence_length": tr["sequence_length"],
                             "data_seed": seed})
        print(f"{path}  sha256={file_digest(path)}")
    return EXIT_OK


def cmd_init_teacher(args) -> int:
    cfg = _load_config(args)
    arch = cfg.teacher_arch()
    warmup = cfg.data["distill"]["teacher"]["warmup_steps"]
    dataset = None
    if warmup > 0:
        tr = cfg.data["train"]
        dataset = make_synthetic_dataset(cfg.seed, tr["n_train_sequences"], tr["sequence_length"])
    teacher = make_teacher(
        seed=cfg.seed,
        arch=arch,
        frontend_spec=cfg.frontend_spec(),
        warmup_steps=warmup,
        warmup_lr=float(cfg.data["distill"]["teacher"]["warmup_lr"]),
        dataset=dataset,
    )
    save_model(args.out, teacher.encoder, {"seed": cfg.seed, "config_digest": cfg.digest(), "role": "teacher"})
    print(f"{args.out}  sha256={file_digest(args.out)}")
    if dataset is not None:
        loss = teacher_self_regression_loss(teacher, dataset.sequences[:4])
        print(f"teacher self-regression loss after {warmup} warmup steps: {loss:.6f}")
    return EXIT_OK


def _load_train_data(cfg: RunConfig, key: str):
    path = cfg.paths[key]
    if not path:
        raise ConfigurationError(f"config paths.{key} must point at a dataset file")
    return load_dataset(path)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    space = cfg.space()
    teacher = _load_teacher(cfg)
    dataset = _load_train_data(cfg, "train_data")
    tc = cfg.train_config(stage=args.stage, init_checkpoint=args.init)
    train = stage1_train if args.stage == 1 else stage2_train
    meta, model, log = train(tc, space, teacher, dataset, cfg.mask_spec(), cfg.target_config(),
                             l1_reduction=cfg.l1_reduction())
    save_model(args.out, model, {**meta, "config_digest": cfg.digest()})
    log_path = args.log or f"{args.out}.log.csv"
    log.to_csv(log_path, header_lines=(f"config_digest={cfg.digest()}", f"seed={cfg.seed}"))
    final = log.records[-1]
    print(f"{args.out}  sha256={file_digest(args.out)}")
    print(f"{log_path}  steps={len(log.records)} final_loss={final.loss:.6f}")
    return EXIT_OK


def cmd_search(args) -> int:
    cfg = _load_config(args)
    model, _ = load_model(args.checkpoint, "supernet")
    space = model.space
    teacher = _load_teacher(cfg)
    check_teacher_compat(model, teacher)
    val = _load_train_data(cfg, "val_data")
    max_params = args.max_params
    if max_params is None:
        max_params = cfg.data["search"]["max_params"]
    if max_params == 0:
        max_params = subnet_params(space, max_subnet(space), cfg.search_budget(max_params=1))
    budget = cfg.search_budget(max_params=max_params)
    result = random_search(
        model, space, budget, val.sequences, teacher,
        cfg.mask_spec(), cfg.target_config(), workers=args.workers,
        l1_reduction=cfg.l1_reduction(),
    )
    csv_path = f"{args.out}.csv"
    with atomic_open(csv_path) as fh:
        fh.write(report_scatter(result, header_lines=(
            f"config_digest={cfg.digest()}", f"seed={budget.seed}")))
    summary = summarize(result)
    summary["config_digest"] = cfg.digest()
    summary_path = f"{args.out}.summary.yaml"
    with atomic_open(summary_path) as fh:
        fh.write(yaml.safe_dump(summary, sort_keys=True))
    best = result.best
    print(f"{csv_path}  candidates={len(result.entries)} acceptance={result.acceptance_rate:.4f}")
    print(f"{summary_path}")
    print(f"best: params={best.params} loss={best.loss:.6f} config={best.config.to_dict()}")
    print(f"bounds: min_loss={result.bound_min.loss:.6f} max_loss={result.bound_max.loss:.6f}")
    return EXIT_OK


def cmd_extract(args) -> int:
    model, source_meta = load_model(args.checkpoint, "supernet")
    space = model.space
    config = parse_subnet_spec(space, args.subnet_spec)
    subnet = extract_subnet(model, config)

    # Equivalence report: sliced supernet forward vs the straight-line
    # reference forward on the extracted weights.
    rng = Rng(12345, 99)
    worst = 0.0
    for _ in range(5):
        x = (rng.uniform((8, space.frontend_dim)) * 2.0 - 1.0).astype(np.float32)
        _, _, sup_out = forward(model, config, x)
        _, _, ext_out = reference_forward(subnet, config, x)
        worst = max(worst, float(np.abs(sup_out.data - ext_out.data).max()))
    params = count_params(space, config).total
    meta = {
        "role": "subnet",
        "seed": source_meta.get("seed", 0),
        "config": config.to_dict(),
        "source_checkpoint_digest": file_digest(args.checkpoint),
        "params_with_frontend_and_head": params,
    }
    save_model(args.out, subnet, meta)
    print(f"{args.out}  sha256={file_digest(args.out)}")
    print(f"params={params} equivalence_max_abs_diff={worst:.3e}")
    if worst > 1e-6:
        raise DivergenceError(f"extraction equivalence check failed: {worst:.3e} > 1e-6")
    return EXIT_OK


def cmd_count(args) -> int:
    cfg = _load_config(args)
    space = cfg.space()
    if not args.subnets and not args.params:
        raise ConfigurationError("count needs --subnets and/or --params")
    if args.subnets:
        from .spaces import count_subnets

        print(f"subnets: {count_subnets(space)}")
    if args.params:
        if not args.subnet_spec:
            raise ConfigurationError("--params needs --subnet-spec")
        config = parse_subnet_spec(space, args.subnet_spec)
        pc = count_params(
            space, config,
            includes_frontend=not args.no_frontend,
            includes_head=not args.no_head,
        )
        print(f"params: {pc.total}")
        for name, value in pc.by_component.items():
            print(f"  {name}: {value}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    teacher = _load_teacher(cfg)
    val = load_dataset(args.data)
    mask_spec = cfg.mask_spec()
    target_cfg = cfg.target_config()
    eval_batches = cfg.data["search"]["eval_batches"]
    model, meta = load_model(args.checkpoint, "supernet", "subnet")
    check_teacher_compat(model, teacher)
    space = model.space
    if meta.get("role") == "subnet":
        for flag, value in (("--subnet-spec", args.subnet_spec), ("--bounds", args.bounds)):
            if value:
                raise ConfigurationError(f"{flag} does not apply to a subnet checkpoint, which holds one subnet")
        label, configs = "extracted", [full_config(model)]
    elif not args.subnet_spec:
        raise ConfigurationError("--subnet-spec is required for supernet checkpoints")
    else:
        label, configs = args.subnet_spec, [parse_subnet_spec(space, args.subnet_spec)]
        if args.bounds:
            configs += [min_subnet(space), max_subnet(space)]
    loss, *bounds = evaluate_subnets(model, configs, val.sequences, teacher, mask_spec, target_cfg,
                                     eval_seed=cfg.seed, eval_batches=eval_batches,
                                     l1_reduction=cfg.l1_reduction())
    print(f"loss[{label}]: {loss:.8f}")
    if bounds:
        lo, hi = bounds
        order = "max<=min" if hi <= lo else "max>min"
        print(f"bounds: min_subnet={lo:.8f} max_subnet={hi:.8f} ({order})")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
