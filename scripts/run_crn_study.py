#!/usr/bin/env python3
"""Common-random-numbers study: gradient std of the bound's gradient with and
without sample reuse, on a mid-training desk sigmoid belief net.

With reuse, one sample batch serves every Riemann term and all inner
expectations; without, every term and every baseline draws fresh samples.
"""
import argparse

import numpy as np

from tvo import estimators as est
from tvo.objectives import ObjectiveSpec, training_step
from tvo.path import make_schedule
from tvo.trainer import RunConfig, synthetic_dataset, train
from tvo.util import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="crn_study.csv")
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--pretrain-iters", type=int, default=150)
    ap.add_argument("--S", type=int, default=10)
    args = ap.parse_args()

    data = synthetic_dataset("sbn", 999, d_x=64, n_train=400, n_test=50,
                             generator_kwargs={"d_z": 24, "weight_scale": 4.0})
    config = RunConfig(model="sbn", objective="tvo_lower", dataset="synthetic-sbn",
                       d_x=64, d_z=12, S=args.S, K=2, beta1=0.5, spacing="log",
                       lr=3e-3, iters=args.pretrain_iters, batch=24, seed=6,
                       train_items=400, test_items=50, eval_interval=10 ** 9)
    result = train(config, data)
    model, params = result.model, result.params
    x_batch = data.train[:8]
    spec = ObjectiveSpec("tvo_lower", make_schedule(2, 0.5, "log"), S=args.S)

    rows = []
    for trial in range(args.trials):
        def diagnostic(crn):
            def estimator(rep_seed):
                return training_step(spec, model, params, x_batch, rep_seed, crn=crn)[1]

            return est.gradient_std_diagnostic(estimator, repetitions=10, seed=trial)

        with_crn, without = diagnostic(True), diagnostic(False)
        rows.append((trial, with_crn, without, without / with_crn))
        print(f"trial {trial}: with {with_crn:.4f}  without {without:.4f}  "
              f"ratio {without / with_crn:.2f}")
    write_csv(args.out, ["trial", "std_with_crn", "std_without_crn", "ratio"], rows)
    ratios = [row[3] for row in rows]
    print(f"median ratio {np.median(ratios):.2f}; written to {args.out}")


if __name__ == "__main__":
    main()
