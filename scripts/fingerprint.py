#!/usr/bin/env python3
"""SHA-256 fingerprints of training, evaluation and scoring outputs, to check
that a change leaves every number bit-identical.

    PYTHONPATH=src python3 scripts/fingerprint.py [--config desk full vae] [--dump DIR]

For each configuration of scripts/step_memory.py (desk, full, vae) it runs,
in one process and from fixed parameters:
  * 3 Adam steps on fixed minibatches of 24 items: per step the objective
    value, the gradient, and the parameters and Adam moments m and v after
    the update;
  * one trainer.evaluate of the configuration's evaluation items;
  * one 51-knot integrand curve of 24 items (values and standard errors);
  * one build_weight_table of those 24 items at the evaluation S, which spans
    several item blocks (zs and log_w).
It prints one JSON object: per configuration, the SHA-256 over those arrays'
bytes, in that order, and the number of arrays. --dump DIR also writes each
configuration's arrays to DIR/<config>.npz.

Digests depend on the host (CPU, numpy and BLAS builds): compare two commits
on one host, never against a stored digest. BLAS runs on one thread, pinned
before numpy is imported.
"""
import argparse
import hashlib
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from step_memory import CONFIGS, CURVE_ITEMS, GRID, build  # noqa: E402
from tvo import estimators, objectives, path, trainer  # noqa: E402

STEPS = 3
BATCH = 24


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


def digest(arrays):
    h = hashlib.sha256()
    for _, a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", nargs="+", choices=sorted(CONFIGS), default=["desk", "full", "vae"])
    ap.add_argument("--dump", metavar="DIR", help="also write each configuration's arrays to DIR/<config>.npz")
    args = ap.parse_args()

    result = {}
    for name in args.config:
        arrays = outputs(name)
        result[name] = {"sha256": digest(arrays), "arrays": len(arrays)}
        if args.dump:
            os.makedirs(args.dump, exist_ok=True)
            np.savez(os.path.join(args.dump, f"{name}.npz"), **dict(arrays))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
