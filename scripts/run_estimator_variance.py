#!/usr/bin/env python3
"""Gradient standard deviation per estimator on the analytic Gaussian model.

Compares the reparameterization path, the covariance estimator, plain
REINFORCE, and REINFORCE with independent baselines on the single-partition
bound, across sample counts. Every estimator is taken at the ELBO knot and
reads no schedule, so each row leaves its K and beta1 cells empty, as
`tvo diagnose-grad-std` does.
"""
import argparse

import numpy as np

from tvo import estimators as est
from tvo.models import ConjugateGaussian
from tvo.util import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="estimator_variance.csv")
    ap.add_argument("--S-list", default="5,10,50")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--reps", type=int, default=10)
    args = ap.parse_args()

    model = ConjugateGaussian()
    params = model.init_params(4)
    xb = np.array([[0.8]])

    def cell(kind, S, seed):
        def estimator(rep_seed):
            if kind == "reparam":
                return est.reparam_gradient(model, params, xb, "elbo", S, rep_seed)
            table = est.build_weight_table(model, params, xb, S, np.array([0.0, 1.0]), rep_seed)
            if kind == "cov":
                return est.covariance_gradient(model, params, None, table, 0)
            if kind == "reinforce":
                return est.reinforce_gradient(model, params, None, table, 0)
            return est.reinforce_baseline_gradient(model, params, None, table, 0)

        return est.gradient_std_diagnostic(estimator, repetitions=args.reps, seed=seed)

    rows = []
    for kind in ("reparam", "cov", "reinforce-baseline", "reinforce"):
        for S in [int(v) for v in args.S_list.split(",")]:
            avg = float(np.mean([cell(kind, S, s) for s in range(args.seeds)]))
            rows.append((kind, S, None, None, 0, avg))
            print(f"{kind:>20} S={S:<4} avg std {avg:.4f}")
    write_csv(args.out, ["estimator", "S", "K", "beta1", "iteration", "avg_std"], rows)
    print(f"written to {args.out}")


if __name__ == "__main__":
    main()
