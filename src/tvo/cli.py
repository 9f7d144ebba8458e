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
from .estimators import (build_weight_table, gradient_std_diagnostic, iwae_estimate,
                         reinforce_baseline_gradient, reinforce_gradient,
                         reparam_gradient, table_blocks)
from .models import (load_checkpoint, random_conjugate_gaussian, random_toy,
                     restore_params)
from .objectives import (ObjectiveSpec, elbo_estimate, eubo_estimate, training_step,
                         tvo_lower, tvo_upper)
from .oracles import enumerate_states, ti_identity_check
from .path import IntegrandCurve, integrand_curve, make_schedule
from .trainer import (FORMATS, RunConfig, build_dataset, build_model, schedule_reads, sweep,
                      train)
from .util import rng_stream, write_csv


# allowed values of each setting that takes one of a fixed set
CHOICES = {
    "model": ["toy", "sbn", "gaussian-vae", "conjugate-gaussian", "gaussian"],
    "objective": ["elbo", "eubo", "tvo_lower", "tvo_upper", "iwae", "wake_sleep"],
    "optimize": ["theta", "phi", "both"],
    "data_source": ["real", "model_simulated"],
    "spacing": ["equal", "log"],
    "dataset": ["synthetic-toy", "synthetic-sbn", "gaussian", "mnist"],
    "format": FORMATS,
}


def _on_off(text):
    """A switch value: on/true or off/false, in any case."""
    value = {"on": True, "true": True, "off": False, "false": False}.get(text.lower())
    if value is None:
        raise argparse.ArgumentTypeError(f"expected on or off, got {text!r}")
    return value


def _list_of(kind):
    """Parser of a comma list of `kind` values; empty text is the empty list."""
    def parse(text):
        try:
            return [kind(v) for v in text.split(",")] if text else []
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of {kind.__name__} values, got {text!r}") from None
    return parse


def _add_run_flags(p: argparse.ArgumentParser, checkpoint=False, names=None):
    """One flag per RunConfig field (those in `names` when given), named,
    typed and defaulted by the field; a setting that is off by default is a
    bare switch."""
    for f in fields(RunConfig):
        if names is not None and f.name not in names:
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.default is False:
            p.add_argument(flag, action="store_true")
        elif f.default is True:
            p.add_argument(flag, type=_on_off, default=f.default, metavar="{on,off}")
        else:  # unset, eval_items takes at most its default (_dataset)
            p.add_argument(flag, type=type(f.default), choices=CHOICES.get(f.name),
                           default=None if f.name == "eval_items" else f.default)
    p.add_argument("--config", default="", help="key=value file; file overrides flags")
    if checkpoint:
        p.add_argument("--checkpoint", default="")


def _apply_config_file(args):
    """key=value overrides; every key names a flag of the subcommand (dashes
    or underscores), and its value is parsed and checked as that flag's."""
    if not getattr(args, "config", ""):
        return args
    if not os.path.exists(args.config):
        raise FormatError(f"config file not found: {args.config}")
    flags = {a.dest: a for a in args.parser._actions if a.option_strings and a.dest != "help"}
    with open(args.config) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{args.config}:{line_no}"
            if "=" not in line:
                raise ConfigError(f"{where}: expected key=value")
            key, text = (part.strip() for part in line.split("=", 1))
            action = flags.get(key.replace("-", "_"))
            if action is None:
                raise ConfigError(f"{where}: unknown key {key!r}")
            try:
                value = _on_off(text) if action.nargs == 0 else (action.type or str)(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"{where}: bad {key} value: {exc}") from None
            if action.choices is not None and value not in action.choices:
                raise ConfigError(f"{where}: {key} must be one of "
                                  f"{', '.join(action.choices)}, got {text!r}")
            setattr(args, action.dest, value)
    return args


def _run_config(args) -> RunConfig:
    values = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return RunConfig(**{k: v for k, v in values.items() if v is not None}).validate()


def _dataset(args, config):
    """The run's dataset; an eval_items set by flag or config file must fit its test split."""
    data = build_dataset(config)
    n = data.test.shape[0]
    if args.eval_items is not None and args.eval_items > n:
        raise ConfigError(f"eval_items {args.eval_items} exceeds the {n} items of the test split")
    return data


def _resolve(args):
    """(config, dataset, model, params), restored from --checkpoint if given."""
    config = _run_config(args)
    data = _dataset(args, config)
    model = build_model(config, data)
    params = model.init_params(config.seed)
    if args.checkpoint:
        if not os.path.exists(args.checkpoint):
            raise FormatError(f"checkpoint not found: {args.checkpoint}")
        params = restore_params(params, load_checkpoint(args.checkpoint))
    return config, data, model, params


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    config = _run_config(args)
    result = train(config, _dataset(args, config))
    for row in result.metrics[-3:]:
        print(f"iter {row.iteration}: objective {row.objective:.4f} "
              f"test log evidence {row.test_log_evidence:.4f} kl gap {row.kl_gap:.4f}")
    if result.aborted:
        print("run aborted: " + "; ".join(result.events))
        return 1
    return 0


def cmd_sweep(args) -> int:
    config = _run_config(args)
    rows, _ = sweep(config, args.beta1_list, args.K_list, args.S_list, _dataset(args, config))
    for row in rows:
        print("cell %03d beta1=%s K=%s S=%s -> %s logZ=%s" % (row[0], row[1], row[2], row[3], row[5], row[7]))
    failed = sum(row[5].startswith("error") for row in rows)
    if failed:
        print(f"{failed} of {len(rows)} sweep cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args) -> int:
    config, data, model, params = _resolve(args)
    schedule = make_schedule(config.K, config.beta1, config.spacing)
    seed = int(rng_stream(config.seed, 5).integers(2 ** 31))
    parts = [(elbo_estimate(table), eubo_estimate(table), iwae_estimate(table.log_w),
              tvo_lower(table, schedule), tvo_upper(table, schedule))
             for table in table_blocks(model, params, data.test[:config.eval_items],
                                       config.eval_samples, seed, schedule)]
    names = ("elbo", "eubo", "iwae", "tvo_lower", "tvo_upper")
    rows = [(name, float(np.mean(np.concatenate(v)))) for name, v in zip(names, zip(*parts))]
    for name, value in rows:
        print(f"{name} {value!r}")
    if config.out:
        write_csv(os.path.join(config.out, "eval.csv"), ["metric", "value"], rows,
                  config.format == "jsonl")
    return 0


def cmd_check_identity(args) -> int:
    if args.model == "toy":
        model, params = random_toy(args.seed, m=args.m_latent, d_x=args.d_x)
        if args.match_posterior:
            params = model.posterior_proposal(params)
        x, _ = model.sample_joint(params, 1, rng_stream(args.seed, 31))
        enum = enumerate_states(model, params, x[0])
        residual = ti_identity_check(enum.g, enum.log_evidence, args.grid)
    elif args.model in ("conjugate-gaussian", "gaussian"):
        model, params, x = random_conjugate_gaussian(args.seed)
        residual = ti_identity_check(lambda b: model.analytic_g(params, x, b),
                                     model.analytic_log_evidence(params, x), args.grid)
    else:
        raise ConfigError("check-identity supports the oracle-capable models: toy, conjugate-gaussian")
    ok = residual < 1e-5
    print(f"ti-identity model={args.model} grid={args.grid} residual={residual!r} "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok or args.report_only else 1


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


def _cov_objective(config):
    """The objective a cov estimate differentiates; wake-sleep's is its wake bound."""
    return config.objective if config.objective != "wake_sleep" else "tvo_lower"


def _std_for(args, config, estimator, S, data, model, params):
    x_batch = data.train[:config.batch]
    schedule = make_schedule(config.K, config.beta1, config.spacing)
    spec = ObjectiveSpec(_cov_objective(config), schedule, S, config.optimize, "real")

    if estimator == "cov":
        def estimator_fn(rep_seed):
            return training_step(spec, model, params, x_batch, rep_seed, crn=config.crn)[1]
    elif estimator in ("reinforce", "reinforce-baseline"):
        grad_fn = reinforce_gradient if estimator == "reinforce" else reinforce_baseline_gradient

        def estimator_fn(rep_seed):
            table = build_weight_table(model, params, x_batch, S, np.array([0.0, 1.0]), rep_seed)
            return grad_fn(model, params, None, table, 0)
    elif estimator == "reparam":
        def estimator_fn(rep_seed):
            return reparam_gradient(model, params, x_batch, "elbo", S, rep_seed)
    else:
        raise ConfigError(f"unknown estimator {estimator!r}")
    return gradient_std_diagnostic(estimator_fn, repetitions=args.reps,
                                   seed=int(rng_stream(config.seed, 41).integers(2 ** 31)))


def cmd_diagnose_grad_std(args) -> int:
    if args.pretrain_iters and args.checkpoint:
        raise ConfigError("--pretrain-iters trains from initialization; it takes no --checkpoint")
    config, data, model, params = _resolve(args)
    iteration = 0
    if args.pretrain_iters:
        params = train(replace(config, iters=args.pretrain_iters, out=""), data).params
        iteration = args.pretrain_iters
    rows = []
    for estimator in args.estimator.split(","):
        # only cov reads the schedule; reinforce and reparam take the ELBO's
        kind = _cov_objective(config) if estimator == "cov" else "elbo"
        reads_K, reads_beta1 = schedule_reads(kind, config.K, config.spacing)
        for S in args.S_list or [config.S]:
            std = _std_for(args, config, estimator, S, data, model, params)
            rows.append((estimator, S, config.K if reads_K else None,
                         config.beta1 if reads_beta1 else None, iteration, std))
            print(f"{estimator} S={S}: avg gradient std {std!r}")
    header = ["estimator", "S", "K", "beta1", "iteration", "avg_std"]
    write_csv(config.out or "grad_std.csv", header, rows, config.format == "jsonl")
    return 0


def cmd_export_curve(args) -> int:
    if args.grid < 1:
        raise ConfigError(f"grid must be at least 1, got {args.grid}")
    grid = np.array(args.betas) if args.betas else np.linspace(0.0, 1.0, args.grid)
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(f"--betas must be strictly increasing, got {args.betas}")
    config, data, model, params = _resolve(args)
    items = data.test[:config.eval_items]
    seed = int(rng_stream(config.seed, 5).integers(2 ** 31))
    curve = integrand_curve(model, params, items, grid, config.eval_samples, seed)
    out_path = config.out or "curve.csv"
    write_csv(out_path, IntegrandCurve.COLUMNS, curve.rows(), config.format == "jsonl")
    message = f"curve with {grid.size} points written to {out_path}"
    if grid.size >= 3:
        message += f"; knee near beta={curve.beta_star()!r}"
    print(message)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tvo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, run_flags=True, checkpoint=False):
        p = sub.add_parser(name, help=help)
        if run_flags:
            _add_run_flags(p, checkpoint, None if run_flags is True else run_flags)
        p.set_defaults(func=func, parser=p)  # the config-file reader reads p's flags
        return p

    command("train", cmd_train, "one training run")

    p = command("sweep", cmd_sweep, "grid of training runs over beta1/K/S")
    p.add_argument("--beta1-list", type=_list_of(float), default=[])
    p.add_argument("--K-list", type=_list_of(int), default=[])
    p.add_argument("--S-list", type=_list_of(int), default=[])

    command("eval", cmd_eval, "bound estimates for a model or checkpoint", checkpoint=True)

    p = command("check-identity", cmd_check_identity,
                "quadrature of the exact integrand vs exact evidence",
                run_flags=("model", "seed", "m_latent", "d_x"))
    p.add_argument("--grid", type=int, default=10_000)
    p.add_argument("--report-only", action="store_true")
    p.add_argument("--match-posterior", action="store_true")

    p = command("check-gradients", cmd_check_gradients,
                "backward pass vs central finite differences", run_flags=False)
    p.add_argument("--networks", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = command("diagnose-grad-std", cmd_diagnose_grad_std,
                "gradient standard deviation per estimator", checkpoint=True)
    p.add_argument("--estimator", default="cov",
                   help="comma list from cov,reinforce,reinforce-baseline,reparam")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--S-list", type=_list_of(int), default=[])
    p.add_argument("--pretrain-iters", type=int, default=0)

    p = command("export-curve", cmd_export_curve, "integrand curve as plot-ready CSV",
                checkpoint=True)
    p.add_argument("--betas", type=_list_of(float), default=[])
    p.add_argument("--grid", type=int, default=21)

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
