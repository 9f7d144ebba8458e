"""Benchmark of the tvo package: closed-loop workloads, measured from outside.

    python3 perfbench/run.py --workload desk-sbn --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics;
`--trace 1` runs an untraced lane and a traced lane side by side, call by
call, with the outside-in tracer installed only around the traced lane's
calls, and prints the per-layer metrics. Each metric
line gives name, value and unit; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. The exit code is
0 only when every output check passed. `--workload all` runs all four
workloads, each in its own process, one after the other.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("desk-sbn", "full-sbn", "vae-iwae")     # the workloads of BENCHMARK.json
EXTRA_WORKLOADS = ("score-sbn",)                           # not in it: outside its run-time budget
BLAS_THREADS = 1
SETUP_BEFORE = 3               # set-ups timed before the loop; the last one's context is used
SETUP_SAMPLES = 16             # set-ups timed during the loop, at most one per round
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def pin_threads():
    """Set the BLAS/OpenMP thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    threads = min(BLAS_THREADS, nproc())
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_tvo():
    """Import tvo from this checkout's src/, or exit non-zero without a result."""
    sys.path.insert(0, SRC)
    try:
        import tvo
    except ImportError as exc:
        raise SystemExit(f"cannot import tvo from {SRC}: {exc}")
    if not os.path.abspath(tvo.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"tvo was imported from {tvo.__file__}, not from {SRC}")
    return tvo


def import_seconds():
    """Seconds of one `import tvo` that executes every tvo module again from
    its compiled file. The modules loaded before are put back afterwards, so
    every reference to them stays valid. Numpy is already loaded: its import
    is not this package's set-up."""
    def tvo_modules():
        return {k: m for k, m in sys.modules.items() if k == "tvo" or k.startswith("tvo.")}

    loaded = tvo_modules()
    for name in loaded:
        del sys.modules[name]
    try:
        t0 = time.perf_counter()
        import tvo  # noqa: F401
        return time.perf_counter() - t0
    finally:
        for name in tvo_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


class SetupSampler:
    """Times set-up again and again: `import tvo`, then data synthesis, model
    build and warm-up calls. Called between rounds of the timed loop, it
    takes a sample at most every `seconds / SETUP_SAMPLES`, so its medians
    see the same stretch of host time as the loop's."""

    def __init__(self, w, seed, seconds):
        self.w, self.seed = w, seed
        self.every_s = seconds / SETUP_SAMPLES
        self.imports, self.setups = [], []
        self.last = 0.0

    def sample(self):
        """Time one import and one set-up; return the set-up's context."""
        import workloads as wl
        self.imports.append(import_seconds())
        t0 = time.perf_counter()
        ctx = wl.build_context(self.w, self.seed)
        wl.warm_up(ctx)
        self.last = time.perf_counter()
        self.setups.append(self.last - t0)
        return ctx

    def __call__(self):
        if time.perf_counter() - self.last >= self.every_s:
            self.sample()

    def median_s(self):
        return statistics.median(self.imports) + statistics.median(self.setups)


def environment(threads):
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):     # older numpy has no dict mode
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {"blas_threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": nproc(), "cpu": cpu}


def measure(w, seed, seconds, trace):
    """Set up `w` several times, run its loop, check its outputs.

    Untraced, set-up is timed before the loop and between its rounds (see
    SetupSampler): setup_s is the median `import tvo` plus the median set-up.
    Returns (checks, metrics, detail); metrics map name -> (value, unit).
    """
    import workloads as wl
    from tracer import Tracer, namespace_snapshot

    sampler = SetupSampler(w, seed, seconds)
    for _ in range(SETUP_BEFORE):
        ctx = sampler.sample()
    checks = wl.Checks()
    detail = {"import_runs_s": sampler.imports, "setup_runs_s": sampler.setups}
    if not trace:
        [res] = wl.run_loop(ctx, checks, seconds, between=sampler)
        wl.check_reference(checks)
        metrics = wl.end_to_end(w, res, sampler.median_s(), wl.peak_rss_mb())
    else:
        tracer = Tracer()
        before = namespace_snapshot()
        res, traced = wl.run_loop(ctx, checks, seconds, tracer)
        checks.attempted += 1
        if namespace_snapshot() != before:
            checks.fail("the traced run left tvo namespaces changed")
        checks.attempted += 1
        if (res.params.vector.tobytes() != traced.params.vector.tobytes()
                or res.outputs != traced.outputs):
            checks.fail("traced and untraced lanes differ in parameters or outputs")
        peak = wl.evaluate_peak_mb(ctx, res.params)
        metrics = wl.per_layer(tracer, traced, res, peak)
        detail["spans"] = tracer.rows()
    detail["samples"] = {"iter": len(res.iter_s), "eval": len(res.eval_s), "curve": len(res.curve_s)}
    detail["rounds"] = res.rounds
    detail["loop_s"] = res.loop_s
    detail["aborted"] = res.aborted
    return checks, metrics, detail


def write_spans(name, seed, spans):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"), "w") as fh:
        for row in spans:
            fh.write(json.dumps(row) + "\n")


def run_one(args):
    threads = pin_threads()
    import_tvo()
    import workloads as wl
    checks, metrics, detail = measure(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                                      args.trace)
    spans = detail.pop("spans", None)
    if spans is not None:
        write_spans(args.workload, args.seed, spans)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:34s} {value:14.6g} {unit}")
    for msg in checks.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  env=environment(threads))
    print(json.dumps({"detail": detail}))
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args):
    status = 0
    for name in WORKLOAD_NAMES + EXTRA_WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
