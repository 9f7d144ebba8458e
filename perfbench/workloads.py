"""The four benchmark workloads and their closed loops.

Every workload is one client in a closed loop: the next call starts when the
previous one returns. The loops call only public functions of the tvo
package (`objectives.training_step`, `trainer.adam_step`, `trainer.evaluate`,
`path.integrand_curve`, dataset and model constructors) and time each call
from here. Numpy must already be imported with its thread count pinned.
"""
from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np

from tvo import models, objectives, path, trainer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
GENERATOR_SEED = 999


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "train" or "score"
    model: str                   # "sbn" or "vae"
    d_x: int
    d_z: int
    nonlinear: bool = False
    objective: str = "tvo_lower"
    K: int = 2
    beta1: float = 0.3
    S: int = 10
    batch: int = 24
    lr: float = 3e-3
    n_train: int = 1000
    n_test: int = 200
    generator: dict = field(default_factory=dict)
    eval_items: int = 200        # items per trainer.evaluate call
    eval_S: int = 500
    curve_items: int = 24        # items per path.integrand_curve call
    grid: int = 51               # knots of the integrand-curve grid
    steps_per_round: int = 200   # training steps between evaluation rounds
    min_rounds: int = 3          # rounds always run; the quality metric is read after the last
    score_items: int = 2         # score workload: items per iteration
    min_iters: int = 40          # score workload: iterations always run


WORKLOADS = {
    # c08 configuration: tiny arrays, per-tape-node overhead and periodic evaluation
    "desk-sbn": Workload(
        "desk-sbn", "train", "sbn", d_x=64, d_z=12, K=2, beta1=0.3, S=10,
        generator={"d_z": 24, "weight_scale": 4.0},
        eval_items=200, eval_S=500, curve_items=24, steps_per_round=200, min_rounds=3),
    # full-width nonlinear SBN (716,784 parameters): kernels and Adam dominate
    "full-sbn": Workload(
        "full-sbn", "train", "sbn", d_x=784, d_z=200, nonlinear=True, K=5, beta1=0.3, S=10,
        n_train=480, n_test=24, generator={"d_z": 50, "weight_scale": 2.5},
        eval_items=24, eval_S=100, curve_items=24, steps_per_round=10, min_rounds=6),
    # continuous latents: the reparameterization path of estimators and models
    "vae-iwae": Workload(
        "vae-iwae", "train", "vae", d_x=784, d_z=20, objective="iwae", K=1, S=10,
        n_train=480, n_test=24, generator={"d_z": 50, "weight_scale": 2.5},
        eval_items=24, eval_S=200, curve_items=24, steps_per_round=30, min_rounds=6),
    # tape-free scoring of a fixed desk SBN at the README's S = 5000
    "score-sbn": Workload(
        "score-sbn", "score", "sbn", d_x=64, d_z=12,
        generator={"d_z": 24, "weight_scale": 4.0}, eval_S=5000, score_items=2, min_iters=40),
}


def derived_seed(seed, *stream):
    """A 31-bit seed for one call site, derived from the workload seed."""
    return int(np.random.default_rng([seed, *stream]).integers(2 ** 31))


@dataclass
class Context:
    workload: Workload
    seed: int
    data: object
    model: object
    params0: object
    spec: object
    grid: np.ndarray


def build_context(w: Workload, seed: int) -> Context:
    """Data synthesis and model build; everything the timed loop needs.

    The frozen generator is the same for every seed (as in c08), so the
    evidence level the quality metric reads is comparable across seeds; the
    seed picks which of twice as many drawn items are used.
    """
    pool = trainer.synthetic_dataset("sbn", GENERATOR_SEED, w.d_x, n_train=2 * w.n_train, n_val=0,
                                     n_test=2 * w.n_test, generator_kwargs=dict(w.generator))
    pick = np.random.default_rng([seed, 1])
    data = replace(pool, train=pool.train[pick.permutation(2 * w.n_train)[:w.n_train]],
                   test=pool.test[pick.permutation(2 * w.n_test)[:w.n_test]])
    if w.model == "sbn":
        model = models.SigmoidBeliefNet(d_x=w.d_x, d_z=w.d_z, layers=2, nonlinear=w.nonlinear)
        model.set_data_mean(data.train.mean(axis=0))
    else:
        model = models.GaussianVAE(d_x=w.d_x, d_z=w.d_z)
    params0 = model.init_params(derived_seed(seed, 2))
    if w.objective == "iwae":
        spec = objectives.ObjectiveSpec("iwae", None, w.S)
    else:
        spec = objectives.ObjectiveSpec(w.objective, path.make_schedule(w.K, w.beta1, "log"), w.S)
    return Context(w, seed, data, model, params0, spec, np.linspace(0.0, 1.0, w.grid))


def warm_up(ctx: Context):
    """Run each timed call once so lazy set-up is paid before timing."""
    w = ctx.workload
    x = ctx.data.test[:2]
    if w.kind == "train":
        state = trainer.AdamState.for_params(ctx.params0, lr=w.lr)
        params = ctx.params0
        for i in range(2):
            _, grad = objectives.training_step(ctx.spec, ctx.model, params, ctx.data.train[:w.batch],
                                               derived_seed(ctx.seed, 99, i))
            params = trainer.adam_step(state, params, grad.vector, maximize=ctx.spec.maximize)
    trainer.evaluate(ctx.model, ctx.params0, x, w.eval_S, 0)
    path.integrand_curve(ctx.model, ctx.params0, x, ctx.grid, w.eval_S, 0)


# ---------------------------------------------------------------------------
# output checks


class Checks:
    """Counts attempted operations and the ones that failed or were wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, what):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


def close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_eval(iwae, elbo):
    """Finite values and ELBO <= IWAE (Jensen on the same sample batch)."""
    if not (math.isfinite(iwae) and math.isfinite(elbo)):
        return "non-finite evaluate output"
    if elbo > iwae + 1e-9 * abs(iwae):
        return f"ELBO {elbo} exceeds IWAE {iwae}"
    return None


def check_curve(curve, betas, iwae=None, elbo=None):
    """A finite, nondecreasing integrand curve. Given the IWAE and ELBO of the
    same items and seed, its beta = 0 value is the ELBO, and its left and right
    Riemann sums bracket the IWAE (the curve integrates exactly to it)."""
    g = np.asarray(curve.values)
    if not np.all(np.isfinite(g)):
        return "non-finite curve value"
    scale = max(1.0, float(np.max(np.abs(g))))
    if np.any(np.diff(g) < -1e-9 * scale):
        return "integrand curve decreases"
    if iwae is not None:
        widths = np.diff(betas)
        left, right = float(g[:-1] @ widths), float(g[1:] @ widths)
        tol = 1e-9 * abs(iwae)
        if not close(float(g[0]), elbo, 1e-9):
            return f"curve at beta=0 ({g[0]}) differs from the ELBO ({elbo})"
        if not left - tol <= iwae <= right + tol:
            return f"IWAE {iwae} outside the Riemann sums [{left}, {right}]"
    return None


# ---------------------------------------------------------------------------
# loops


@dataclass
class LoopResult:
    iter_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    curve_s: list = field(default_factory=list)
    loop_s: float = 0.0
    items: int = 0               # training rows (train) or scored items (score)
    samples_scored: int = 0      # items x S summed over every scoring call
    rounds: int = 0
    iwae: list = field(default_factory=list)
    outputs: list = field(default_factory=list)   # values compared traced vs untraced
    params: object = None
    aborted: bool = False


class Lane:
    """One client's state and results. A traced lane installs its tracer
    around each call and removes it afterwards, so the untraced lane that
    runs interleaved with it calls the original functions."""

    def __init__(self, ctx, tracer=None):
        self.tracer = tracer
        self.res = LoopResult(params=ctx.params0)
        self.state = trainer.AdamState.for_params(ctx.params0, lr=ctx.workload.lr)

    def call(self, fn, root=None):
        """(fn(), seconds it took), under a root span `root` when traced."""
        tracer = self.tracer
        if tracer is None:
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            if root is None:
                out = fn()
            else:
                with tracer.span(root):
                    out = fn()
            elapsed = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        if root is not None:
            tracer.flush_tapes()
        return out, elapsed


def _train_step(ctx, lane, x, seed, checks, step):
    """One training_step plus its adam_step; False when the run must abort."""
    res, spec = lane.res, ctx.spec

    def step_fn():
        value, grad = objectives.training_step(spec, ctx.model, res.params, x, seed)
        return value, trainer.adam_step(lane.state, res.params, grad.vector, maximize=spec.maximize)

    checks.attempted += 1
    try:
        (value, params), elapsed = lane.call(step_fn, "iteration")
    except Exception as exc:  # noqa: BLE001 - the run aborts and the failure is counted
        checks.fail(f"step {step}: {type(exc).__name__}: {exc}")
        return False
    res.params = params
    res.iter_s.append(elapsed)
    if not math.isfinite(value) or lane.state.skipped:
        checks.fail(f"step {step}: objective {value}, skipped updates {lane.state.skipped}")
        return False
    return True


def _eval_round(ctx, lane, rnd, checks):
    """One evaluate and one integrand curve at the lane's current parameters."""
    w, res = ctx.workload, lane.res
    ev_seed = derived_seed(ctx.seed, 5, rnd)
    items = ctx.data.test[:w.eval_items]
    checks.attempted += 1
    try:
        (iwae, elbo), elapsed = lane.call(
            lambda: trainer.evaluate(ctx.model, res.params, items, w.eval_S, ev_seed))
    except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
        checks.fail(f"evaluate round {rnd}: {type(exc).__name__}: {exc}")
    else:
        res.eval_s.append(elapsed)
        res.samples_scored += items.shape[0] * w.eval_S
        res.iwae.append(iwae)
        res.outputs.append((iwae, elbo))
        problem = check_eval(iwae, elbo)
        if problem:
            checks.fail(f"evaluate round {rnd}: {problem}")
    items = ctx.data.test[:w.curve_items]
    checks.attempted += 1
    try:
        curve, elapsed = lane.call(
            lambda: path.integrand_curve(ctx.model, res.params, items, ctx.grid, w.eval_S, ev_seed))
    except Exception as exc:  # noqa: BLE001
        checks.fail(f"curve round {rnd}: {type(exc).__name__}: {exc}")
    else:
        res.curve_s.append(elapsed)
        res.samples_scored += items.shape[0] * w.eval_S
        res.outputs.append(tuple(curve.values))
        problem = check_curve(curve, ctx.grid)
        if problem:
            checks.fail(f"curve round {rnd}: {problem}")


def _pause(between):
    """Seconds spent in `between()`, which runs outside the timed calls."""
    if between is None:
        return 0.0
    t0 = time.perf_counter()
    between()
    return time.perf_counter() - t0


def train_loop(ctx: Context, checks: Checks, seconds, tracer=None, between=None) -> list:
    """Training steps in rounds of `steps_per_round`, each round followed by
    one evaluate and one integrand-curve call, then by `between()`, whose
    time counts towards `seconds` but not towards `loop_s`. Whole rounds
    run, at least `min_rounds` and until `seconds` have passed. With a
    tracer, a traced lane replays every call of the untraced lane right
    beside it, in alternating order; both lanes must end with bit-identical
    parameters."""
    w = ctx.workload
    lanes = [Lane(ctx)] + ([Lane(ctx, tracer)] if tracer is not None else [])
    n = ctx.data.train.shape[0]
    step = rounds = 0
    aborted = False
    paused = 0.0
    start = time.perf_counter()
    while not aborted and (rounds < w.min_rounds or time.perf_counter() - start < seconds):
        for _ in range(w.steps_per_round):
            x = ctx.data.train[(step * w.batch + np.arange(w.batch)) % n]
            seed = derived_seed(ctx.seed, 3, step)
            order = lanes if step % 2 == 0 else lanes[::-1]
            if not all(_train_step(ctx, lane, x, seed, checks, step) for lane in order):
                aborted = True
                break
            step += 1
        if aborted:
            break
        rounds += 1
        for lane in lanes:
            _eval_round(ctx, lane, rounds, checks)
        paused += _pause(between)
    loop_s = time.perf_counter() - start - paused
    for lane in lanes:
        lane.res.loop_s, lane.res.rounds, lane.res.aborted = loop_s, rounds, aborted
        lane.res.items = step * w.batch
        lane.res.samples_scored += step * w.batch * w.S
    return [lane.res for lane in lanes]


def _score_iteration(ctx, lane, items, seed, checks, i):
    w, res = ctx.workload, lane.res

    def both():
        t0 = time.perf_counter()
        iwae, elbo = trainer.evaluate(ctx.model, ctx.params0, items, w.eval_S, seed)
        eval_s = time.perf_counter() - t0
        curve = path.integrand_curve(ctx.model, ctx.params0, items, ctx.grid, w.eval_S, seed)
        return iwae, elbo, curve, eval_s

    checks.attempted += 1
    try:
        (iwae, elbo, curve, eval_s), elapsed = lane.call(both, "iteration")
    except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
        checks.fail(f"iteration {i}: {type(exc).__name__}: {exc}")
        return
    res.iter_s.append(elapsed)
    res.eval_s.append(eval_s)
    res.curve_s.append(elapsed - eval_s)
    res.iwae.append(iwae)
    res.outputs.append((iwae, elbo, tuple(curve.values)))
    problem = check_eval(iwae, elbo) or check_curve(curve, ctx.grid, iwae, elbo)
    if problem:
        checks.fail(f"iteration {i}: {problem}")


def score_loop(ctx: Context, checks: Checks, seconds, tracer=None, between=None) -> list:
    """Each iteration scores the next `score_items` test items: one evaluate
    and one integrand curve on the same items and seed, so the curve must
    start at the ELBO and its Riemann sums must bracket the IWAE. At least
    `min_iters` iterations run. A tracer adds a traced lane, and `between()`
    runs after each iteration, as in train_loop."""
    w = ctx.workload
    lanes = [Lane(ctx)] + ([Lane(ctx, tracer)] if tracer is not None else [])
    n = ctx.data.test.shape[0]
    i = 0
    paused = 0.0
    start = time.perf_counter()
    while i < w.min_iters or time.perf_counter() - start < seconds:
        items = ctx.data.test[(i * w.score_items + np.arange(w.score_items)) % n]
        seed = derived_seed(ctx.seed, 7, i)
        for lane in (lanes if i % 2 == 0 else lanes[::-1]):
            _score_iteration(ctx, lane, items, seed, checks, i)
        i += 1
        paused += _pause(between)
    loop_s = time.perf_counter() - start - paused
    for lane in lanes:
        lane.res.loop_s = loop_s
        lane.res.items = len(lane.res.iter_s) * w.score_items
        lane.res.samples_scored = 2 * lane.res.items * w.eval_S
    return [lane.res for lane in lanes]


def run_loop(ctx, checks, seconds, tracer=None, between=None) -> list:
    """[untraced result] or, given a tracer, [untraced result, traced result]."""
    loop = train_loop if ctx.workload.kind == "train" else score_loop
    return loop(ctx, checks, seconds, tracer, between)


# ---------------------------------------------------------------------------
# reference values recorded from the seed commit (score-sbn)

REFERENCE_SEED = 0


def reference_values():
    """IWAE, ELBO and integrand curve of a fixed desk SBN on fixed items."""
    w = WORKLOADS["score-sbn"]
    ctx = build_context(w, REFERENCE_SEED)
    items = ctx.data.test[:w.score_items]
    iwae, elbo = trainer.evaluate(ctx.model, ctx.params0, items, w.eval_S, 12345)
    curve = path.integrand_curve(ctx.model, ctx.params0, items, ctx.grid, w.eval_S, 12345)
    return {"iwae": iwae, "elbo": elbo, "curve": [float(v) for v in curve.values]}


def record_reference():
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference_values(), fh, indent=1)
        fh.write("\n")


def check_reference(checks: Checks):
    checks.attempted += 1
    with open(REFERENCE_PATH) as fh:
        want = json.load(fh)
    try:
        got = reference_values()
    except Exception as exc:  # noqa: BLE001
        checks.fail(f"reference: {type(exc).__name__}: {exc}")
        return
    pairs = [("iwae", got["iwae"], want["iwae"]), ("elbo", got["elbo"], want["elbo"])]
    pairs += [(f"curve[{k}]", a, b) for k, (a, b) in enumerate(zip(got["curve"], want["curve"]))]
    bad = [name for name, a, b in pairs if not close(a, b, 1e-9)]
    if bad or len(got["curve"]) != len(want["curve"]):
        checks.fail(f"reference values differ beyond 1e-9 relative: {bad[:5]}")


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(w, res, setup_s, rss_mb):
    """Metrics of an untraced loop; empty when the loop aborted or a call
    kind never succeeded (the run is then already counted as failed)."""
    quality_evals = w.min_rounds if w.kind == "train" else w.min_iters
    if res.aborted or not (res.iter_s and res.eval_s and res.curve_s) or len(res.iwae) < quality_evals:
        return {}
    iter_ms = [1e3 * t for t in res.iter_s]
    if w.kind == "train":
        nll = -res.iwae[w.min_rounds - 1]
    else:
        nll = -float(np.mean(res.iwae[:w.min_iters]))
    return {
        "setup_s": (setup_s, "s"),
        "iter_ms_p50": (percentile(iter_ms, 50), "ms"),
        "iter_ms_p90": (percentile(iter_ms, 90), "ms"),
        "items_per_s": (res.items / res.loop_s, "items/s"),
        "samples_scored_per_s": (res.samples_scored / res.loop_s, "samples/s"),
        "eval_ms_p50": (1e3 * statistics.median(res.eval_s), "ms"),
        "curve_ms_p50": (1e3 * statistics.median(res.curve_s), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "final_nll_nats": (nll, "nats"),
    }


TAPE_OPS = ("mul", "add", "sum", "log_sigmoid", "leaf", "matmul", "neg", "reshape",
            "tanh", "sub", "exp", "logsumexp")

# Per traced iteration. Layers that run on every workload are reported in ms;
# layers that only some workloads run (tape, Adam, gradient assembly) as a
# share of the iteration, which is exactly 0 where the layer never runs.
ITER_MS = ("models.sample_q", "models.score", "estimators.temper")
ITER_SELF_MS = ("estimators.weight_table",)
ITER_PCT = ("models.taped_fwd", "autodiff.backward", "trainer.adam")
ITER_SELF_PCT = ("objectives.training_step", "estimators.reparam")
ITER_CALLS = ("models.sample_q", "models.score", "models.taped_fwd", "estimators.temper")
# per call, wherever the call happens (iterations or evaluation rounds)
CALL_SELF_MS = ("trainer.evaluate", "path.integrand_curve")


def per_layer(tracer, traced: LoopResult, untraced: LoopResult, eval_peak_mb):
    """Metrics of a traced loop; empty when either lane aborted or never finished an iteration."""
    if traced.aborted or untraced.aborted or not (traced.iter_s and untraced.iter_s):
        return {}
    spans = tracer.spans
    info = tracer.durations()
    roots = [i for i, s in enumerate(spans) if s[0] == "iteration"]
    n_iter = len(roots)
    iter_total = sum(info[r][0] for r in roots)
    incl, calls, selfs, call_self, call_n = {}, {}, {}, {}, {}
    child_self = {r: 0.0 for r in roots}
    for i, (name, _, _, _) in enumerate(spans):
        dur, self_t, root = info[i]
        call_self[name] = call_self.get(name, 0.0) + self_t
        call_n[name] = call_n.get(name, 0) + 1
        if root not in child_self or i == root:
            continue
        child_self[root] += self_t
        incl[name] = incl.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + self_t
    ops = {}
    for _, _, counter in tracer.tapes:         # one entry per iteration
        for op, c in counter.items():
            ops[op] = ops.get(op, 0) + c
    out = {}
    for name in ITER_MS:
        out[f"{name}.ms"] = (1e3 * incl.get(name, 0.0) / n_iter, "ms")
    for name in ITER_SELF_MS:
        out[f"{name}.self_ms"] = (1e3 * selfs.get(name, 0.0) / n_iter, "ms")
    for name in ITER_PCT:
        out[f"{name}.pct"] = (100.0 * incl.get(name, 0.0) / iter_total, "%")
    for name in ITER_SELF_PCT:
        out[f"{name}.self_pct"] = (100.0 * selfs.get(name, 0.0) / iter_total, "%")
    for name in ITER_CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0) / n_iter, "count")
    out["autodiff.tape_nodes"] = (sum(t[0] for t in tracer.tapes) / n_iter, "count")
    out["autodiff.tape_mb"] = (sum(t[1] for t in tracer.tapes) / n_iter / 1e6, "MB")
    for op in TAPE_OPS:
        out[f"autodiff.nodes.{op}"] = (ops.get(op, 0) / n_iter, "count")
    for name in CALL_SELF_MS:
        out[f"{name}.self_ms"] = (1e3 * call_self.get(name, 0.0) / call_n.get(name, 1), "ms")
    out["trainer.evaluate.peak_mb"] = (eval_peak_mb, "MB")
    traced_p50 = percentile([1e3 * t for t in traced.iter_s], 50)
    untraced_p50 = percentile([1e3 * t for t in untraced.iter_s], 50)
    out["trace.iter_ms_p50"] = (traced_p50, "ms")
    out["trace.overhead_pct"] = (100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%")
    out["trace.covered_pct"] = (100.0 * sum(child_self.values()) / iter_total, "%")
    return out


def evaluate_peak_mb(ctx, params):
    """tracemalloc peak of one evaluate call of the loop's size, at `params`."""
    w = ctx.workload
    if w.kind == "train":
        items, S, seed = ctx.data.test[:w.eval_items], w.eval_S, derived_seed(ctx.seed, 5, 1)
    else:
        items, S, seed = ctx.data.test[:w.score_items], w.eval_S, derived_seed(ctx.seed, 7, 0)
    tracemalloc.start()
    try:
        trainer.evaluate(ctx.model, params, items, S, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6
