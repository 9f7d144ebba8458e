#!/usr/bin/env python3
"""Per-step time, resident memory and minor page faults of one training loop.

    PYTHONPATH=src python3 scripts/step_memory.py --config full --batch 24 --steps 120

Trains one configuration with Adam in this process and prints, per training
step (training_step plus adam_step), its wall time, the resident set read from
/proc/self/statm afterwards and the minor page faults (getrusage ru_minflt)
it took. Every 10th step and the last one are followed by one evaluate and
one integrand curve, each printed the same way. The last line is a JSON
summary: the time and tracemalloc peak of the synthetic data draw
(synth_ms, synth_peak_mb); per kind of call, the median ms and the mean
faults (faults come in bursts) over the calls after the first, which pays
one-off set-up; and the largest resident sets.

Configurations (S = 10, every Riemann objective tvo_lower at beta1 = 0.3 on a
log grid):
  desk  SBN d_x 64, d_z 12, K 2; evaluate 200 items at S = 500, curve 24 items
  full  nonlinear SBN d_x 784, d_z 200, K 5; evaluate and curve 24 items at S = 100
  vae   Gaussian VAE d_x 784, d_z 20 on iwae; evaluate and curve 24 items at S = 200

BLAS runs on one thread, pinned before numpy is imported.
"""
import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tvo import models, objectives, path, trainer  # noqa: E402

EVERY = 10          # training steps between evaluate/curve calls
GRID = 51           # knots of the integrand-curve grid
CURVE_ITEMS = 24    # items per integrand curve
CONFIGS = {
    # model, d_x, d_z, nonlinear, objective, K, eval items, eval S, generator d_z, scale
    "desk": ("sbn", 64, 12, False, "tvo_lower", 2, 200, 500, 24, 4.0),
    "full": ("sbn", 784, 200, True, "tvo_lower", 5, 24, 100, 50, 2.5),
    "vae": ("vae", 784, 20, False, "iwae", 1, 24, 200, 50, 2.5),
}
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measured(fn):
    """(fn(), ms, resident MB afterwards, minor faults during the call)."""
    f0, t0 = minflt(), time.perf_counter()
    out = fn()
    ms = (time.perf_counter() - t0) * 1e3
    return out, ms, rss_mb(), minflt() - f0


def dataset(name, batch):
    """The configuration's synthetic data set."""
    _, d_x, _, _, _, _, eval_items, _, gen_d_z, scale = CONFIGS[name]
    return trainer.synthetic_dataset("sbn", 999, d_x, n_train=max(480, batch), n_val=0,
                                     n_test=max(CURVE_ITEMS, eval_items),
                                     generator_kwargs={"d_z": gen_d_z, "weight_scale": scale})


def build(name, batch, data=None):
    """(data, model, spec, eval items, eval S); `data` defaults to dataset(name, batch)."""
    kind, d_x, d_z, nonlinear, objective, K, eval_items, eval_S, _, _ = CONFIGS[name]
    if data is None:
        data = dataset(name, batch)
    if kind == "sbn":
        model = models.SigmoidBeliefNet(d_x=d_x, d_z=d_z, layers=2, nonlinear=nonlinear)
        model.set_data_mean(data.train.mean(axis=0))
    else:
        model = models.GaussianVAE(d_x=d_x, d_z=d_z)
    schedule = None if objective == "iwae" else path.make_schedule(K, 0.3, "log")
    spec = objectives.ObjectiveSpec(objective, schedule, 10)
    return data, model, spec, eval_items, eval_S


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", choices=sorted(CONFIGS), default="desk")
    ap.add_argument("--batch", type=int, default=24)
    ap.add_argument("--steps", type=int, default=100)
    args = ap.parse_args()

    tracemalloc.start()
    t0 = time.perf_counter()
    data = dataset(args.config, args.batch)
    synth_ms = (time.perf_counter() - t0) * 1e3
    synth_peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    data, model, spec, eval_items, eval_S = build(args.config, args.batch, data)
    params = model.init_params(1)
    state = trainer.AdamState.for_params(params, lr=3e-3)
    items, curve_items = data.test[:eval_items], data.test[:CURVE_ITEMS]
    grid = np.linspace(0.0, 1.0, GRID)
    n = data.train.shape[0]
    steps, calls = [], {"evaluate": [], "curve": []}
    print(f"# config {args.config}, batch {args.batch}, {params.size} parameters, "
          f"resident {rss_mb():.1f} MB before the first step")
    print("# call step ms rss_mb minflt")
    for it in range(args.steps):
        x = data.train[(it * args.batch + np.arange(args.batch)) % n]

        def step():
            _, grad = objectives.training_step(spec, model, params, x, seed=it)
            return trainer.adam_step(state, params, grad.vector, maximize=spec.maximize)

        params, ms, rss, flt = measured(step)
        steps.append((ms, rss, flt))
        print(f"step {it + 1} {ms:.3f} {rss:.1f} {flt}")
        if (it + 1) % EVERY == 0 or it + 1 == args.steps:
            for name, fn in (("evaluate", lambda: trainer.evaluate(model, params, items, eval_S, 0)),
                             ("curve", lambda: path.integrand_curve(model, params, curve_items,
                                                                    grid, eval_S, 0))):
                _, ms, rss, flt = measured(fn)
                calls[name].append((ms, rss, flt))
                print(f"{name} {it + 1} {ms:.3f} {rss:.1f} {flt}")

    summary = {"config": args.config, "batch": args.batch, "steps": args.steps,
               "synth_ms": synth_ms, "synth_peak_mb": synth_peak_mb}
    for name, rows in (("step", steps), *calls.items()):
        timed = rows[1:] or rows
        summary[f"{name}_ms_p50"] = statistics.median(r[0] for r in timed)
        summary[f"{name}_minflt_mean"] = statistics.mean(r[2] for r in timed)
    summary["rss_mb_last"] = steps[-1][1]
    summary["rss_mb_max"] = max(r[1] for rows in (steps, *calls.values()) for r in rows)
    summary["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
