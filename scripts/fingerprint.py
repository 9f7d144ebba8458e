#!/usr/bin/env python3
"""SHA-256 fingerprints of training, evaluation and scoring outputs, to check
that a change leaves every number bit-identical.

    PYTHONPATH=src python3 scripts/fingerprint.py [--config desk full vae estimators] [--dump DIR]
    PYTHONPATH=src python3 scripts/fingerprint.py --compare DIR_A DIR_B

For each configuration of scripts/step_memory.py (desk, full, vae) it runs,
in one process and from fixed parameters:
  * 3 Adam steps on fixed minibatches of 24 items: per step the objective
    value, the gradient, and the parameters and Adam moments m and v after
    the update;
  * one trainer.evaluate of the configuration's evaluation items;
  * one 51-knot integrand curve of 24 items (values and standard errors);
  * one build_weight_table of those 24 items at the evaluation S, which spans
    several item blocks (zs and log_w).
The estimators configuration runs, on a toy model, a conjugate Gaussian, a
3-layer nonlinear SBN and a Gaussian VAE (small, seeded; 6 items each):
  * a training step (value and gradient) of every objective kind, with common
    random numbers on and off (the discrete IWAE step on toy and SBN);
  * the covariance, plain REINFORCE and baselined gradients on one table;
  * the pathwise ELBO and IWAE gradients and their U' (VAE and Gaussian);
  * a one-block and a multi-block build_weight_table (zs and log_w);
  * one trainer.evaluate and one 11-knot integrand curve, both over several
    item blocks;
then the five estimates of a `tvo eval` run on a small synthetic SBN whose
samples span several item blocks, read back from its eval.csv, and the value
and gradient of autodiff.random_check_network seeds 0-49.
It prints one JSON object: per configuration, the SHA-256 over those arrays'
bytes, in that order, and the number of arrays. --dump DIR also writes each
configuration's arrays to DIR/<config>.npz.

--compare DIR_A DIR_B reads two --dump directories instead and prints each
array whose values differ, with its largest elementwise relative difference
|a - b| / max(|a|, |b|). It exits 1 when the two dumps differ in their
configurations, array names or shapes, and 0 otherwise.

Digests depend on the host (CPU, numpy and BLAS builds): compare two commits
on one host, never against a stored digest. BLAS runs on one thread, pinned
before numpy is imported.
"""
import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from step_memory import CONFIGS, CURVE_ITEMS, GRID, build  # noqa: E402
from tvo import autodiff, cli, estimators, models, objectives, path, trainer  # noqa: E402
from tvo.errors import DegenerateWeightsWarning  # noqa: E402

STEPS = 3
BATCH = 24
ESTIMATOR_ITEMS = 6
CHECK_NETWORKS = 50


def outputs(name):
    """(label, array) pairs of one configuration, in digest order."""
    data, model, spec, eval_items, eval_S = build(name, BATCH)
    params = model.init_params(1)
    state = trainer.AdamState.for_params(params, lr=3e-3)
    n = data.train.shape[0]
    out = []
    for it in range(STEPS):
        x = data.train[(it * BATCH + np.arange(BATCH)) % n]
        value, grad = objectives.training_step(spec, model, params, x, seed=it)
        params = trainer.adam_step(state, params, grad.vector, maximize=spec.maximize)
        out += [(f"step{it}.value", np.float64(value)), (f"step{it}.grad", grad.vector),
                (f"step{it}.params", params.vector), (f"step{it}.m", state.m),
                (f"step{it}.v", state.v)]
    items = data.test[:CURVE_ITEMS]
    out.append(("evaluate", np.array(trainer.evaluate(model, params, data.test[:eval_items], eval_S, 0))))
    curve = path.integrand_curve(model, params, items, np.linspace(0.0, 1.0, GRID), eval_S, 0)
    out += [("curve.values", curve.values), ("curve.std_errors", curve.std_errors)]
    table = estimators.build_weight_table(model, params, items, eval_S, [0.0, 1.0], 1)
    out += [("table.zs", table.zs), ("table.log_w", table.log_w)]
    return out


def _binary_items(n, d_x, seed):
    return (np.random.default_rng(seed).random((n, d_x)) < 0.5).astype(np.float64)


def estimator_cases():
    """(name, model, params, x) of the estimators configuration."""
    toy, toy_params = models.random_toy(2, m=3, d_x=2)
    toy_x, _ = toy.sample_joint(toy_params, ESTIMATOR_ITEMS, np.random.default_rng(5))
    gauss, gauss_params, _ = models.random_conjugate_gaussian(3)
    gauss_x = np.random.default_rng(6).normal(size=(ESTIMATOR_ITEMS, 1))
    sbn = models.SigmoidBeliefNet(d_x=16, d_z=5, layers=3, nonlinear=True)
    vae = models.GaussianVAE(d_x=16, d_z=3)
    return [("toy", toy, toy_params, toy_x),
            ("gaussian", gauss, gauss_params, gauss_x),
            ("sbn3", sbn, sbn.init_params(4), _binary_items(ESTIMATOR_ITEMS, 16, 7)),
            ("vae", vae, vae.init_params(4), _binary_items(ESTIMATOR_ITEMS, 16, 8))]


def tvo_eval_outputs(S):
    """(label, estimate) of the five `tvo eval` estimates of a synthetic SBN,
    as written to eval.csv."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["eval", "--model", "sbn", "--dataset", "synthetic-sbn", "--d-x", "16",
                         "--d-z", "5", "--K", "3", "--seed", "17", "--eval-items",
                         str(ESTIMATOR_ITEMS), "--eval-samples", str(S), "--out", out])
        if code:
            raise RuntimeError(f"tvo eval exited {code}")
        with open(os.path.join(out, "eval.csv")) as fh:
            rows = list(csv.reader(fh))[1:]
    return [(f"tvo_eval.{name}", np.float64(value)) for name, value in rows]


def estimator_outputs():
    """(label, array) pairs of the estimators configuration, in digest order."""
    warnings.simplefilter("ignore", DegenerateWeightsWarning)  # small-S EUBO steps
    schedule = path.make_schedule(3, 0.3, "log")
    S_blocks = 2 * estimators.BLOCK // 5  # three item blocks of 6 items
    out = []
    for case, model, params, x in estimator_cases():
        for kind in objectives.OBJECTIVE_KINDS:
            spec = objectives.ObjectiveSpec(kind, None if kind == "iwae" else schedule, 8)
            for crn in ((True,) if kind == "iwae" else (True, False)):
                value, grad = objectives.training_step(spec, model, params, x, 11, crn=crn)
                out += [(f"{case}.{kind}.crn{int(crn)}.value", np.float64(value)),
                        (f"{case}.{kind}.crn{int(crn)}.grad", grad.vector)]
        table = estimators.build_weight_table(model, params, x, 8, [0.0, 0.5, 1.0], 12)
        for label, gradient, k in (("covariance", estimators.covariance_gradient, 1),
                                   ("reinforce", estimators.reinforce_gradient, 0),
                                   ("baselined", estimators.reinforce_baseline_gradient, 1)):
            out.append((f"{case}.{label}", gradient(model, params, None, table, k).vector))
        if hasattr(model, "reparam_sample"):
            for objective in ("elbo", "iwae"):
                est = estimators.reparam_gradient(model, params, x, objective, 8, 13)
                out += [(f"{case}.reparam.{objective}.grad", est.vector),
                        (f"{case}.reparam.{objective}.log_w", est.meta["log_w"])]
        for label, S in (("one_block", 8), ("multi_block", S_blocks)):
            table = estimators.build_weight_table(model, params, x, S, [0.0, 1.0], 14)
            out += [(f"{case}.table.{label}.zs", table.zs), (f"{case}.table.{label}.log_w", table.log_w)]
        out.append((f"{case}.evaluate", np.array(trainer.evaluate(model, params, x, S_blocks, 15))))
        curve = path.integrand_curve(model, params, x, np.linspace(0.0, 1.0, 11), S_blocks, 16)
        out += [(f"{case}.curve.values", curve.values), (f"{case}.curve.std_errors", curve.std_errors)]
    out += tvo_eval_outputs(S_blocks)
    for seed in range(CHECK_NETWORKS):
        fn, params = autodiff.random_check_network(seed)
        value, grad = autodiff.value_and_grad(fn, params)
        out += [(f"network{seed}.value", np.float64(value)), (f"network{seed}.grad", grad)]
    return out


def digest(arrays):
    h = hashlib.sha256()
    for _, a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def relative_difference(a, b) -> float:
    """Largest |a - b| / max(|a|, |b|); equal entries (nan with nan too) count
    0, and a nan or infinity facing anything else counts inf."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, rel)
    return float(np.max(np.nan_to_num(rel, nan=np.inf), initial=0.0))


def compare(dir_a, dir_b) -> int:
    """Print the arrays of two dump directories that differ; 1 when their
    configurations, array names or shapes differ."""
    names = [sorted(f for f in os.listdir(d) if f.endswith(".npz")) for d in (dir_a, dir_b)]
    if names[0] != names[1]:
        print(f"configurations differ: {names[0]} vs {names[1]}")
        return 1
    status = differ = total = 0
    for name in names[0]:
        a, b = np.load(os.path.join(dir_a, name)), np.load(os.path.join(dir_b, name))
        config = name[:-len(".npz")]
        if a.files != b.files:
            print(f"{config}: array names differ: {a.files} vs {b.files}")
            status = 1
            continue
        for label in a.files:
            total += 1
            x, y = a[label], b[label]
            if x.shape != y.shape:
                print(f"{config}.{label}: shape {x.shape} vs {y.shape}")
                status = 1
            elif not np.array_equal(x, y, equal_nan=True):
                differ += 1
                print(f"{config}.{label}: largest relative difference {relative_difference(x, y)!r}")
    print(f"{differ} of {total} arrays differ in value")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [*CONFIGS, "estimators"]
    ap.add_argument("--config", nargs="+", choices=names, default=names)
    ap.add_argument("--dump", metavar="DIR", help="also write each configuration's arrays to DIR/<config>.npz")
    ap.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                    help="compare two --dump directories instead of running")
    args = ap.parse_args()
    if args.compare:
        missing = [d for d in args.compare if not os.path.isdir(d)]
        if missing:
            ap.error(f"not a directory: {', '.join(missing)}")
        return compare(*args.compare)

    result = {}
    for name in args.config:
        arrays = estimator_outputs() if name == "estimators" else outputs(name)
        result[name] = {"sha256": digest(arrays), "arrays": len(arrays)}
        if args.dump:
            os.makedirs(args.dump, exist_ok=True)
            np.savez(os.path.join(args.dump, f"{name}.npz"), **dict(arrays))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
