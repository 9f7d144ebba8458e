"""Training harness: Adam, datasets (IDX files or synthetic draws from a
frozen generator), the optimization loop, and sweep orchestration.

Runs are deterministic given the config: every sampling site derives its
stream from (seed, site, iteration). In single-thread mode the wall-clock
column is left empty so repeated runs are byte-identical.
"""
from __future__ import annotations

import itertools
import os
import struct
import time
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import TILE, ParamVector
from .errors import ConfigError, DomainError, FormatError, NumericalError, TvoError
from .estimators import gradient_std_diagnostic, reduce_blocks
from .models import (ConjugateGaussian, GaussianVAE, SigmoidBeliefNet,
                     ToyBernoulli, save_checkpoint)
from .objectives import ObjectiveSpec, training_step
from .path import make_schedule
from .util import rng_stream, write_csv

METRICS_COLUMNS = ["iteration", "objective", "test_log_evidence", "kl_gap",
                   "grad_std", "wallclock_ms"]


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """First/second moment accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    skipped: int = 0

    @classmethod
    def for_params(cls, params: ParamVector, lr=3e-4) -> "AdamState":
        return cls(m=np.zeros(params.size), v=np.zeros(params.size), lr=lr)


def adam_step(state: AdamState, params: ParamVector, gradient, maximize=False) -> ParamVector:
    """Bias-corrected Adam update; `maximize` ascends instead of descending.

    A non-finite gradient aborts the step: the event is counted and the
    parameters come back unchanged.

    m and v are updated in place and the result is written into one new
    vector, slice by slice, TILE elements at a time, with one TILE-sized
    scratch array for the other temporaries, so each slice stays in cache
    across the update's 14 passes. The operations run in the order of the
    textbook form m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    x - lr m_hat / (sqrt(v_hat) + eps) and are elementwise, so every update
    is bit-identical to it, tiled or not. Ascent scales g by -(1 - b1),
    exactly -((1 - b1) g); v is even in g.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != params.vector.shape:
        raise DomainError(f"gradient length {gradient.size} does not match params {params.size}")
    if not np.all(np.isfinite(gradient)):
        state.skipped += 1
        return params
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    g_scale = -(1.0 - b1) if maximize else 1.0 - b1
    c1, c2 = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    out = np.empty_like(params.vector)
    scratch = np.empty(min(TILE, out.size))
    for lo in range(0, out.size, TILE):
        part = slice(lo, lo + TILE)
        g, m, v, o = gradient[part], state.m[part], state.v[part], out[part]
        s = scratch[:g.size]
        np.multiply(g, g_scale, out=s)
        m *= b1
        m += s
        np.multiply(g, 1.0 - b2, out=s)
        s *= g
        v *= b2
        v += s
        np.divide(v, c2, out=s)  # v_hat
        np.sqrt(s, out=s)
        s += state.eps
        np.divide(m, c1, out=o)  # m_hat
        o *= state.lr
        o /= s
        np.subtract(params.vector[part], o, out=o)
    return params.with_vector(out)


# ---------------------------------------------------------------------------
# datasets

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _read_idx(path, kind, magic_want, dims) -> np.ndarray:
    """IDX file of `dims` big-endian sizes after its magic -> (N, rest) uint8 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = 4 * (1 + dims)
    if len(blob) < head:
        raise FormatError(f"{path}: truncated header at byte {len(blob)}")
    magic, n, *rest = struct.unpack_from(">" + "I" * (1 + dims), blob, 0)
    if magic != magic_want:
        raise FormatError(f"{path}: bad {kind} magic {magic:#010x} at byte 0")
    width = int(np.prod(rest))
    if len(blob) < head + n * width:
        raise FormatError(f"{path}: truncated {kind} data at byte {len(blob)} (need {head + n * width})")
    return np.frombuffer(blob, dtype=np.uint8, count=n * width, offset=head).reshape(n, width)


def read_idx_images(path) -> np.ndarray:
    """IDX image file -> (N, rows*cols) uint8 array."""
    return _read_idx(path, "image", IDX_IMAGE_MAGIC, 3)


def read_idx_labels(path) -> np.ndarray:
    return _read_idx(path, "label", IDX_LABEL_MAGIC, 1)[:, 0]


@dataclass
class Dataset:
    train: np.ndarray
    test: np.ndarray
    generator: object = None        # frozen generator model, when synthetic
    generator_params: ParamVector = None

    @property
    def d_x(self) -> int:
        return self.train.shape[1]


def binarize(pixels) -> np.ndarray:
    """Deterministic threshold at intensity 0.5 (pixel value 127.5)."""
    return (np.asarray(pixels) > 127.5).astype(np.float64)


def load_mnist(images_path, test_images_path=None, labels_path=None,
               test_labels_path=None, limit=None) -> Dataset:
    """Binarized MNIST from IDX files.

    The 60k training file splits at exactly 50000/10000; other sizes split
    5/6 to 1/6. The first part trains; the held-out rest is the test split
    when no test file is given. `limit` keeps the first `limit` training items.
    """
    raw = read_idx_images(images_path)
    if labels_path is not None:
        labels = read_idx_labels(labels_path)
        if labels.shape[0] != raw.shape[0]:
            raise FormatError("image/label counts differ")
    n = raw.shape[0]
    cut = 50_000 if n == 60_000 else (n * 5) // 6
    train = binarize(raw[:cut])
    if test_images_path is not None:
        test_raw = read_idx_images(test_images_path)
        if test_labels_path is not None:
            test_labels = read_idx_labels(test_labels_path)
            if test_labels.shape[0] != test_raw.shape[0]:
                raise FormatError("test image/label counts differ")
        test = binarize(test_raw)
    else:
        test = binarize(raw[cut:])
    if limit is not None:
        train = train[:limit]
    return Dataset(train=train, test=test)


def synthetic_dataset(kind, seed, d_x, n_train=1000, n_val=200, n_test=200,
                      generator_kwargs=None) -> Dataset:
    """Observations sampled from a frozen generator model.

    kind "toy" freezes a tabular generator (enumerable, so the exact data
    log evidence is available); kind "sbn" freezes a sigmoid belief net;
    kind "gaussian" the conjugate scalar Gaussian, which ignores d_x.
    One draw of n_train + n_val + n_test items gives train, then n_val
    items that are dropped, then test.
    """
    kwargs = dict(generator_kwargs or {})
    if kind == "toy":
        gen = ToyBernoulli(m=kwargs.get("m", 3), d_x=d_x)
        gen_params = gen.init_params(seed)
    elif kind == "sbn":
        gen = SigmoidBeliefNet(d_x=d_x, d_z=kwargs.get("d_z", 16),
                               layers=kwargs.get("layers", 2),
                               nonlinear=kwargs.get("nonlinear", True))
        gen_params = gen.init_params(seed)
        scale = kwargs.get("weight_scale", 2.5)
        gen_params = gen_params.with_vector(gen_params.vector * scale)
    elif kind == "gaussian":
        gen = ConjugateGaussian()
        gen_params = gen.init_params(seed)
    else:
        raise ConfigError(f"unknown synthetic dataset kind {kind!r}")
    rng = rng_stream(seed, 211)
    x, _ = gen.sample_joint(gen_params, n_train + n_val + n_test, rng)
    return Dataset(train=x[:n_train], test=x[n_train + n_val:], generator=gen,
                   generator_params=gen_params)


# ---------------------------------------------------------------------------
# run configuration

DESK_CAPS = {"iters": 50_000, "d_z": 64, "S": 1000, "eval_samples": 5000, "batch": 256}
FORMATS = ("csv", "jsonl")


@dataclass(frozen=True)
class RunConfig:
    """Flat run description; every field is a CLI flag of the same name,
    type and default (cli._add_run_flags)."""

    model: str = "toy"
    objective: str = "tvo_lower"
    optimize: str = "both"
    data_source: str = "real"
    S: int = 10
    K: int = 2
    beta1: float = 0.3
    spacing: str = "log"
    lr: float = 3e-4
    batch: int = 24
    iters: int = 1000
    eval_interval: int = 0          # 0 means iters // 10
    eval_samples: int = 500
    eval_items: int = 200
    seed: int = 0
    dataset: str = "synthetic-toy"
    images: str = ""
    labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    limit: int = 0
    out: str = ""
    format: str = "csv"             # every CSV of the run; jsonl also mirrors each
    crn: bool = True
    single_thread: bool = False
    d_x: int = 8
    d_z: int = 20
    layers: int = 2
    nonlinear: bool = False
    m_latent: int = 3
    generator_seed: int = 999
    train_items: int = 1000
    test_items: int = 200
    grad_std_every: int = 0
    allow_full_scale: bool = False

    def validate(self):
        for name in ("S", "batch", "iters", "eval_samples", "eval_items", "train_items",
                     "test_items"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("eval_interval", "grad_std_every", "limit"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative, got {getattr(self, name)}")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {', '.join(FORMATS)}, got {self.format!r}")
        if not self.allow_full_scale:
            for name, cap in DESK_CAPS.items():
                if getattr(self, name) > cap:
                    raise ConfigError(
                        f"{name}={getattr(self, name)} exceeds the desk-scale cap {cap}; "
                        f"pass allow_full_scale to override")
        return self


def build_model(config: RunConfig, data: Dataset):
    if config.model == "toy":
        return ToyBernoulli(m=config.m_latent, d_x=data.d_x)
    if config.model == "sbn":
        model = SigmoidBeliefNet(d_x=data.d_x, d_z=config.d_z, layers=config.layers,
                                 nonlinear=config.nonlinear)
        model.set_data_mean(data.train.mean(axis=0))
        return model
    if config.model == "gaussian-vae":
        return GaussianVAE(d_x=data.d_x, d_z=config.d_z)
    if config.model in ("conjugate-gaussian", "gaussian"):
        return ConjugateGaussian()
    raise ConfigError(f"unknown model {config.model!r}")


def build_dataset(config: RunConfig) -> Dataset:
    if config.dataset == "mnist":
        if not config.images:
            raise ConfigError("mnist dataset needs --images")
        return load_mnist(config.images, config.test_images or None,
                          config.labels or None, config.test_labels or None,
                          limit=config.limit or None)
    if config.dataset == "synthetic-toy":
        data = synthetic_dataset("toy", config.generator_seed, config.d_x,
                                 n_train=config.train_items, n_test=config.test_items,
                                 generator_kwargs={"m": config.m_latent})
    elif config.dataset == "synthetic-sbn":
        data = synthetic_dataset("sbn", config.generator_seed, config.d_x,
                                 n_train=config.train_items, n_test=config.test_items)
    elif config.dataset == "gaussian":
        data = synthetic_dataset("gaussian", config.generator_seed, config.d_x,
                                 n_train=config.train_items, n_val=config.test_items,
                                 n_test=config.test_items)
    else:
        raise ConfigError(f"unknown dataset {config.dataset!r}")
    if config.limit:
        data = replace(data, train=data.train[:config.limit])
    return data


def objective_specs(config: RunConfig) -> list[ObjectiveSpec]:
    """Specs run each iteration; wake-sleep alternates a theta lower-bound
    step on real data with a phi upper-bound step on simulated data."""
    if config.objective == "wake_sleep":
        one = make_schedule(1)
        return [ObjectiveSpec("tvo_lower", one, config.S, "theta", "real"),
                ObjectiveSpec("tvo_upper", one, config.S, "phi", "model_simulated")]
    schedule = make_schedule(config.K, config.beta1, config.spacing)
    return [ObjectiveSpec(config.objective, schedule, config.S,
                          config.optimize, config.data_source)]


def schedule_reads(kind, K, spacing) -> tuple[bool, bool]:
    """(reads K, reads beta1) for a run of objective `kind`: only the TVO
    bounds take the configured schedule (every other objective, wake-sleep
    included, runs on K = 1), and only log spacing past K = 1 places beta1."""
    if kind not in ("tvo_lower", "tvo_upper"):
        return False, False
    return True, spacing == "log" and K > 1


# ---------------------------------------------------------------------------
# train loop


@dataclass
class MetricsRow:
    iteration: int
    objective: float
    test_log_evidence: float = None
    kl_gap: float = None
    grad_std: float = None
    wallclock_ms: float = None

    def astuple(self):
        return (self.iteration, self.objective, self.test_log_evidence,
                self.kl_gap, self.grad_std, self.wallclock_ms)


@dataclass
class TrainResult:
    params: ParamVector
    metrics: list
    sleep_metrics: list
    aborted: bool
    events: list
    model: object
    dataset: Dataset
    config: RunConfig
    checkpoint_path: str = ""

    @property
    def final_test_log_evidence(self):
        for row in reversed(self.metrics):
            if row.test_log_evidence is not None:
                return row.test_log_evidence
        return None


def evaluate(model, params, items, S_eval, seed):
    """(mean IWAE log-evidence, mean ELBO) over a fixed eval subset, streamed
    block by block without tempering (estimators.reduce_blocks)."""
    streamed = reduce_blocks(model, params, items, S_eval, seed)
    return float(np.mean(streamed.iwae)), float(np.mean(streamed.elbo))


def train(config: RunConfig, data: Dataset = None) -> TrainResult:
    """Adam on every objective of `config`; minibatches cycle through the
    training items in file order, unshuffled."""
    config.validate()
    if data is None:
        data = build_dataset(config)
    model = build_model(config, data)
    params = model.init_params(config.seed)
    specs = objective_specs(config)
    states = [AdamState.for_params(params, lr=config.lr) for _ in specs]
    eval_interval = config.eval_interval or max(1, config.iters // 10)
    eval_items = data.test[:config.eval_items]
    config = replace(config, eval_items=eval_items.shape[0])  # config.cfg: the count scored
    metrics, sleep_metrics, events = [], [], []
    aborted = False
    last_good = params
    t0 = time.perf_counter()
    n = data.train.shape[0]

    for it in range(config.iters):
        take = (it * config.batch + np.arange(config.batch)) % n
        x_batch = data.train[take]
        values = []
        try:
            for which, spec in enumerate(specs):
                value, grad = training_step(
                    spec, model, params, x_batch,
                    seed=int(rng_stream(config.seed, 3, it, which).integers(2 ** 31)),
                    crn=config.crn)
                if not np.isfinite(value):
                    raise NumericalError(f"objective became non-finite at iteration {it}")
                params = adam_step(states[which], params, grad.vector, maximize=spec.maximize)
                values.append(value)
        except NumericalError as exc:
            events.append(f"iteration {it}: {exc}; aborting with last good parameters")
            params = last_good
            aborted = True
            break
        last_good = params

        if (it + 1) % eval_interval == 0 or it + 1 == config.iters:
            iwae, elbo = evaluate(model, params, eval_items, config.eval_samples,
                                  seed=int(rng_stream(config.seed, 5).integers(2 ** 31)))
            wall = None if config.single_thread else (time.perf_counter() - t0) * 1e3
            grad_std = _maybe_grad_std(config, specs[0], model, params, x_batch, it)
            metrics.append(MetricsRow(it + 1, values[0], iwae, iwae - elbo, grad_std, wall))
            if len(specs) > 1:
                sleep_metrics.append(MetricsRow(it + 1, values[1], iwae, iwae - elbo, None, wall))

    result = TrainResult(params=params, metrics=metrics, sleep_metrics=sleep_metrics,
                         aborted=aborted, events=events, model=model, dataset=data,
                         config=config)
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        with open(os.path.join(config.out, "config.cfg"), "w") as fh:
            # no out=: a rerun from the file writes where its --out says
            fh.writelines(f"{f}={getattr(config, f)}\n" for f in config.__dataclass_fields__ if f != "out")
        jsonl = config.format == "jsonl"
        write_csv(os.path.join(config.out, "metrics.csv"), METRICS_COLUMNS,
                  [row.astuple() for row in metrics], jsonl)
        if sleep_metrics:
            write_csv(os.path.join(config.out, "metrics_sleep.csv"), METRICS_COLUMNS,
                      [row.astuple() for row in sleep_metrics], jsonl)
        result.checkpoint_path = os.path.join(config.out, "checkpoint.tvom")
        save_checkpoint(result.checkpoint_path, params)
        if events:
            with open(os.path.join(config.out, "events.log"), "w") as fh:
                fh.write("\n".join(events) + "\n")
    return result


def _maybe_grad_std(config, spec, model, params, x_batch, it):
    if not config.grad_std_every or (it + 1) % config.grad_std_every:
        return None

    def estimator(rep_seed):
        return training_step(spec, model, params, x_batch, rep_seed, crn=config.crn)[1]

    return gradient_std_diagnostic(estimator, repetitions=10,
                                   seed=int(rng_stream(config.seed, 9, it).integers(2 ** 31)))


# ---------------------------------------------------------------------------
# sweeps

SWEEP_COLUMNS = ["cell", "beta1", "K", "S", "seed", "status",
                 "final_objective", "final_test_log_evidence"]


def sweep(config: RunConfig, beta1_list=None, K_list=None, S_list=None, data: Dataset = None):
    """Grid of independent runs; cell i runs with seed config.seed + i.

    A row's beta1 and K cells are empty when its run reads no such value
    (schedule_reads), and a beta1 or K list that no cell's run reads is a
    ConfigError. A cell that fails with a package error or an I/O error is
    recorded with the status "error: <type>: <message>" and the sweep
    continues; any other exception is a bug and propagates. Returns the rows
    of the aggregated table (also written to <out>/sweep.csv when out is set,
    mirrored like each cell's files when config.format is jsonl).
    """
    beta1_axis = list(beta1_list) if beta1_list else [config.beta1]
    k_axis = list(K_list) if K_list else [config.K]
    s_axis = list(S_list) if S_list else [config.S]
    cells = list(itertools.product(beta1_axis, k_axis, s_axis))
    reads = [schedule_reads(config.objective, K, config.spacing) for _, K, _ in cells]
    unread = [f"--{name}-list" for name, given, which in (("K", K_list, 0), ("beta1", beta1_list, 1))
              if given and not any(r[which] for r in reads)]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: no cell's schedule reads it "
                          f"(objective {config.objective}, {config.spacing} spacing)")
    rows, results = [], []
    for cell, ((beta1, K, S), (reads_K, reads_beta1)) in enumerate(zip(cells, reads)):
        cell_out = f"{config.out}/cell{cell:03d}" if config.out else ""
        cell_config = replace(config, beta1=beta1, K=K, S=S, seed=config.seed + cell, out=cell_out)
        label = (cell, beta1 if reads_beta1 else None, K if reads_K else None, S, cell_config.seed)
        try:
            result = train(cell_config, data)
            final = result.metrics[-1] if result.metrics else None
            rows.append((*label, "aborted" if result.aborted else "ok",
                         final.objective if final else None, result.final_test_log_evidence))
            results.append(result)
        except (TvoError, OSError) as exc:
            rows.append((*label, f"error: {type(exc).__name__}: {exc}", None, None))
            results.append(None)
    if config.out:
        write_csv(os.path.join(config.out, "sweep.csv"), SWEEP_COLUMNS, rows,
                  config.format == "jsonl")
    return rows, results
