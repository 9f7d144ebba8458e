"""Command-line frontend: training, sweeps, evaluation, oracle identity
checks, gradient self-checks, estimator variance diagnostics, and curve
export. Every output is CSV (plus a JSON-lines mirror with --format jsonl).

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .autodiff import finite_difference_gradient, random_check_network, value_and_grad
from .errors import (ConfigError, DomainError, FormatError, TvoError,
                     UnsupportedEstimatorError)
from .estimators import (build_weight_table, gradient_std_diagnostic,
                         reinforce_baseline_gradient, reinforce_gradient,
                         reparam_gradient)
from .models import (load_checkpoint, random_conjugate_gaussian, random_toy,
                     restore_params)
from .objectives import (ObjectiveSpec, elbo_estimate, eubo_estimate,
                         iwae_estimate, training_gradient, tvo_lower, tvo_upper)
from .oracles import enumerate_states, ti_identity_check
from .path import integrand_curve, make_schedule
from .trainer import (RunConfig, build_dataset, build_model, sweep, train,
                      METRICS_COLUMNS)
from .util import rng_stream, write_csv, write_jsonl


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", default="toy",
                   choices=["toy", "sbn", "gaussian-vae", "conjugate-gaussian", "gaussian"])
    p.add_argument("--objective", default="tvo_lower",
                   choices=["elbo", "eubo", "tvo_lower", "tvo_upper", "iwae", "wake_sleep"])
    p.add_argument("--optimize", default="both", choices=["theta", "phi", "both"])
    p.add_argument("--data-source", default="real", choices=["real", "model_simulated"])
    p.add_argument("--S", type=int, default=10)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--beta1", type=float, default=0.3)
    p.add_argument("--spacing", default="log", choices=["equal", "log"])
    p.add_argument("--lr", type=float, default=3e-4)
    p.add_argument("--batch", type=int, default=24)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--eval-interval", type=int, default=0)
    p.add_argument("--eval-samples", type=int, default=500)
    p.add_argument("--eval-items", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset", default="synthetic-toy",
                   choices=["synthetic-toy", "synthetic-sbn", "gaussian", "mnist"])
    p.add_argument("--images", default="")
    p.add_argument("--labels", default="")
    p.add_argument("--test-images", default="")
    p.add_argument("--test-labels", default="")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--out", default="")
    p.add_argument("--crn", default="on", choices=["on", "off"])
    p.add_argument("--single-thread", action="store_true")
    p.add_argument("--d-x", type=int, default=8)
    p.add_argument("--d-z", type=int, default=20)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--nonlinear", action="store_true")
    p.add_argument("--m-latent", type=int, default=3)
    p.add_argument("--generator-seed", type=int, default=999)
    p.add_argument("--train-items", type=int, default=1000)
    p.add_argument("--test-items", type=int, default=200)
    p.add_argument("--grad-std-every", type=int, default=0)
    p.add_argument("--allow-full-scale", action="store_true")
    p.add_argument("--config", default="", help="key=value file; file overrides flags")
    p.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    p.add_argument("--checkpoint", default="")


def _apply_config_file(args):
    """key=value overrides; every key mirrors a CLI flag (dashes or underscores)."""
    if not getattr(args, "config", ""):
        return args
    if not os.path.exists(args.config):
        raise FormatError(f"config file not found: {args.config}")
    with open(args.config) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{args.config}:{line_no}: expected key=value")
            key, value = line.split("=", 1)
            attr = key.strip().replace("-", "_")
            if not hasattr(args, attr):
                raise ConfigError(f"{args.config}:{line_no}: unknown key {key.strip()!r}")
            current = getattr(args, attr)
            if isinstance(current, bool):
                setattr(args, attr, value.strip().lower() in ("1", "true", "on", "yes"))
            elif isinstance(current, int):
                setattr(args, attr, int(value))
            elif isinstance(current, float):
                setattr(args, attr, float(value))
            else:
                setattr(args, attr, value.strip())
    return args


def _run_config(args) -> RunConfig:
    kwargs = {}
    for f in fields(RunConfig):
        attr = f.name
        if attr == "crn":
            kwargs[attr] = args.crn == "on"
            continue
        if hasattr(args, attr):
            kwargs[attr] = getattr(args, attr)
    return RunConfig(**kwargs)


def _resolve(args):
    """(dataset, model, params) for subcommands that score a model."""
    config = _run_config(args)
    data = build_dataset(config)
    model = build_model(config, data)
    params = model.init_params(config.seed)
    if args.checkpoint:
        if not os.path.exists(args.checkpoint):
            raise FormatError(f"checkpoint not found: {args.checkpoint}")
        params = restore_params(params, load_checkpoint(args.checkpoint))
    return config, data, model, params


def _emit(args, path, header, rows):
    write_csv(path, header, rows)
    if args.format == "jsonl":
        write_jsonl(os.path.splitext(path)[0] + ".jsonl", header, rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    config = _run_config(args)
    result = train(config)
    for row in result.metrics[-3:]:
        print(f"iter {row.iteration}: objective {row.objective:.4f} "
              f"test log evidence {row.test_log_evidence:.4f} kl gap {row.kl_gap:.4f}")
    if config.out and args.format == "jsonl":
        write_jsonl(os.path.join(config.out, "metrics.jsonl"), METRICS_COLUMNS,
                    [row.astuple() for row in result.metrics])
    if result.aborted:
        print("run aborted: " + "; ".join(result.events))
        return 1
    return 0


def cmd_sweep(args) -> int:
    config = _run_config(args)
    beta1_list = [float(v) for v in args.beta1_list.split(",")] if args.beta1_list else None
    k_list = [int(v) for v in args.K_list.split(",")] if args.K_list else None
    s_list = [int(v) for v in args.S_list.split(",")] if args.S_list else None
    rows, _ = sweep(config, beta1_list, k_list, s_list)
    for row in rows:
        print("cell %03d beta1=%s K=%s S=%s -> %s logZ=%s" % (row[0], row[1], row[2], row[3], row[5], row[7]))
    if config.out and args.format == "jsonl":
        from .trainer import SWEEP_COLUMNS
        write_jsonl(os.path.join(config.out, "sweep.jsonl"), SWEEP_COLUMNS, rows)
    failed = sum(row[5].startswith("error") for row in rows)
    if failed:
        print(f"{failed} of {len(rows)} sweep cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args) -> int:
    config, data, model, params = _resolve(args)
    schedule = make_schedule(config.K, config.beta1, config.spacing)
    items = data.test[:config.eval_items]
    seed = int(rng_stream(config.seed, 5).integers(2 ** 31))
    table = build_weight_table(model, params, items, config.eval_samples, schedule.betas, seed)
    rows = [
        ("elbo", float(np.mean(np.asarray(elbo_estimate(table))))),
        ("eubo", float(np.mean(np.asarray(eubo_estimate(table))))),
        ("iwae", float(np.mean(np.asarray(iwae_estimate(table.log_w))))),
        ("tvo_lower", float(np.mean(np.asarray(tvo_lower(table, schedule))))),
        ("tvo_upper", float(np.mean(np.asarray(tvo_upper(table, schedule))))),
    ]
    for name, value in rows:
        print(f"{name} {value!r}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _emit(args, os.path.join(args.out, "eval.csv"), ["metric", "value"], rows)
    return 0


def cmd_check_identity(args) -> int:
    if args.model == "toy":
        model, params = random_toy(args.seed, m=args.m_latent, d_x=min(args.d_x, 3))
        if args.match_posterior:
            params = model.posterior_proposal(params)
        x, _ = model.sample_joint(params, 1, rng_stream(args.seed, 31))
        enum = enumerate_states(model, params, x[0])
        residual = ti_identity_check(enum.g, enum.log_evidence, args.grid)
    elif args.model == "gaussian":
        model, params, x = random_conjugate_gaussian(args.seed)
        residual = ti_identity_check(lambda b: model.analytic_g(params, x, b),
                                     model.analytic_log_evidence(params, x), args.grid)
    else:
        raise ConfigError("check-identity supports the oracle-capable models: toy, gaussian")
    ok = residual < 1e-5
    print(f"ti-identity model={args.model} grid={args.grid} residual={residual!r} "
          f"{'PASS' if ok else 'FAIL'}")
    if args.report_only:
        return 0
    return 0 if ok else 1


def cmd_check_gradients(args) -> int:
    worst = 0.0
    failures = 0
    for i in range(args.networks):
        fn, params = random_check_network(args.seed + i)
        _, grad = value_and_grad(fn, params)

        def evaluate(vec, fn=fn, params=params):
            return value_and_grad(fn, params.with_vector(vec))[0]

        fd = finite_difference_gradient(evaluate, params.vector, h=1e-5)
        rel = float(np.max(np.abs(grad - fd)) / max(1.0, float(np.max(np.abs(fd)))))
        worst = max(worst, rel)
        if rel > 1e-5:
            failures += 1
            print(f"network {i}: relative error {rel!r} FAIL")
    print(f"check-gradients networks={args.networks} worst={worst!r} "
          f"{'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def _std_for(args, config, estimator, S, data, model, params):
    x_batch = data.train[:config.batch]
    objective = config.objective if config.objective != "wake_sleep" else "tvo_lower"
    schedule = make_schedule(config.K, config.beta1, config.spacing)
    spec = ObjectiveSpec(objective, schedule, S, config.optimize, "real")

    if estimator == "cov":
        def estimator_fn(rep_seed):
            return training_gradient(spec, model, params, x_batch, rep_seed, crn=config.crn)
    elif estimator in ("reinforce", "reinforce-baseline"):
        grad_fn = reinforce_gradient if estimator == "reinforce" else reinforce_baseline_gradient

        def estimator_fn(rep_seed):
            table = build_weight_table(model, params, x_batch, S, np.array([0.0, 1.0]), rep_seed)
            return grad_fn(model, params, x_batch, None, table, 0)
    elif estimator == "reparam":
        def estimator_fn(rep_seed):
            return reparam_gradient(model, params, x_batch, "elbo", S, rep_seed)
    else:
        raise ConfigError(f"unknown estimator {estimator!r}")
    return gradient_std_diagnostic(estimator_fn, repetitions=args.reps,
                                   seed=int(rng_stream(config.seed, 41).integers(2 ** 31)))


def cmd_diagnose_grad_std(args) -> int:
    config = _run_config(args)
    data = build_dataset(config)
    model = build_model(config, data)
    params = model.init_params(config.seed)
    iteration = 0
    if args.pretrain_iters:
        pre = replace(config, iters=args.pretrain_iters, out="")
        result = train(pre, data)
        params = result.params
        iteration = args.pretrain_iters
    estimators_list = args.estimator.split(",")
    s_list = [int(v) for v in args.S_list.split(",")] if args.S_list else [config.S]
    rows = []
    for estimator in estimators_list:
        for S in s_list:
            std = _std_for(args, config, estimator, S, data, model, params)
            rows.append((estimator, S, config.K, config.beta1, iteration, std))
            print(f"{estimator} S={S}: avg gradient std {std!r}")
    out_path = args.out or "grad_std.csv"
    if os.path.dirname(out_path):
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
    _emit(args, out_path, ["estimator", "S", "K", "beta1", "iteration", "avg_std"], rows)
    return 0


def cmd_export_curve(args) -> int:
    config, data, model, params = _resolve(args)
    if args.betas:
        grid = np.array([float(v) for v in args.betas.split(",")])
    else:
        grid = np.linspace(0.0, 1.0, args.grid)
    items = data.test[:config.eval_items]
    seed = int(rng_stream(config.seed, 5).integers(2 ** 31))
    curve = integrand_curve(model, params, items, grid, config.eval_samples, seed)
    out_path = args.out or "curve.csv"
    if os.path.dirname(out_path):
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
    curve.to_csv(out_path)
    if args.format == "jsonl":
        curve.to_jsonl(os.path.splitext(out_path)[0] + ".jsonl")
    message = f"curve with {grid.size} points written to {out_path}"
    if grid.size >= 3:
        message += f"; knee near beta={curve.beta_star()!r}"
    print(message)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tvo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="one training run")
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="grid of training runs over beta1/K/S")
    _add_run_flags(p)
    p.add_argument("--beta1-list", default="")
    p.add_argument("--K-list", default="")
    p.add_argument("--S-list", default="")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="bound estimates for a model or checkpoint")
    _add_run_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-identity", help="quadrature of the exact integrand vs exact evidence")
    _add_run_flags(p)
    p.add_argument("--grid", type=int, default=10_000)
    p.add_argument("--report-only", action="store_true")
    p.add_argument("--match-posterior", action="store_true")
    p.set_defaults(func=cmd_check_identity)

    p = sub.add_parser("check-gradients", help="backward pass vs central finite differences")
    p.add_argument("--networks", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_gradients)

    p = sub.add_parser("diagnose-grad-std", help="gradient standard deviation per estimator")
    _add_run_flags(p)
    p.add_argument("--estimator", default="cov",
                   help="comma list from cov,reinforce,reinforce-baseline,reparam")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--S-list", default="")
    p.add_argument("--pretrain-iters", type=int, default=0)
    p.set_defaults(func=cmd_diagnose_grad_std)

    p = sub.add_parser("export-curve", help="integrand curve as plot-ready CSV")
    _add_run_flags(p)
    p.add_argument("--betas", default="")
    p.add_argument("--grid", type=int, default=21)
    p.set_defaults(func=cmd_export_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args = _apply_config_file(args)
        return args.func(args)
    except (ConfigError, DomainError, UnsupportedEstimatorError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, FileNotFoundError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except TvoError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
