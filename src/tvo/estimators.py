"""Tempered self-normalized importance weights and the gradient estimators.

One batch of proposal samples serves every inverse temperature: the
unnormalized weight of a sample under the path density at beta is its plain
importance weight raised to beta, so re-tempering is a cheap re-normalization
(common random numbers across the Riemann-sum terms).

All weight arithmetic stays in log space; the normalized columns come from a
log-sum-exp, never from exponentiating raw weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, backward, value_of
from .errors import (DegenerateWeightsError, DomainError, NumericalError,
                     ShapeError, UnsupportedEstimatorError)
from .path import PartitionSchedule
from .util import rng_stream

# stream tags for deriving independent RNG streams from one seed
_STREAM_SAMPLES = 101
_STREAM_BASELINE = 103
_STREAM_FRESH = 107
_STREAM_SIMULATE = 109
_STREAM_REPARAM = 113

# samples per item block when a tape-free table is scored: the (items, S, d)
# temporaries of one block stay cache-sized instead of streaming through DRAM
BLOCK = 1024


def _as_beta_grid(schedule) -> np.ndarray:
    if isinstance(schedule, PartitionSchedule):
        return schedule.betas
    betas = np.asarray(schedule, dtype=np.float64)
    if betas.ndim != 1 or betas.size < 1:
        raise ShapeError("expected a schedule or a 1-D beta grid")
    if np.any(betas < 0.0) or np.any(betas > 1.0):
        raise DomainError("beta grid must lie inside [0, 1]")
    return betas


def tempered_columns(log_w, betas) -> np.ndarray:
    """Normalized weight columns w_s^beta / sum w^beta, shape (B, K+1, S).

    beta = 0 is exactly uniform by construction.
    """
    log_w = np.asarray(log_w, dtype=np.float64)
    B, S = log_w.shape
    out = np.empty((B, betas.size, S))
    for k, beta in enumerate(betas):
        if beta == 0.0:
            out[:, k, :] = 1.0 / S
            continue
        scaled = beta * log_w
        m = scaled.max(axis=1, keepdims=True)
        w = np.exp(scaled - m)
        out[:, k, :] = w / w.sum(axis=1, keepdims=True)
    return out


@dataclass
class WeightTable:
    """Per-datum log weights plus their normalized tempered columns.

    One shared sample batch underlies every column. `single` records whether
    the caller passed one observation, so estimates squeeze back to scalars.
    """

    betas: np.ndarray          # (K+1,)
    log_w: np.ndarray          # (B, S)
    norm_w: np.ndarray         # (B, K+1, S)
    zs: object                 # model-specific latent batch, leading dims (B, S)
    x: np.ndarray              # (B, D_x)
    seed: int
    single: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def n_items(self) -> int:
        return self.log_w.shape[0]

    @property
    def n_samples(self) -> int:
        return self.log_w.shape[1]

    def beta_index(self, beta) -> int:
        hit = np.nonzero(self.betas == beta)[0]
        if hit.size == 0:
            raise ShapeError(f"beta {beta} is not a knot of this table: {self.betas}")
        return int(hit[0])

    def column(self, beta_index) -> np.ndarray:
        if not 0 <= beta_index < self.betas.size:
            raise ShapeError(f"beta index {beta_index} outside 0..{self.betas.size - 1}")
        return self.norm_w[:, beta_index, :]

    def expect(self, beta_index, f=None) -> np.ndarray:
        """Per-item sum_s w_s^beta f(z_s) under one column, shape (B,).

        f defaults to U' = log w, which gives the integrand estimate g(beta).
        Every per-knot contraction goes through here, so the K = 1 reductions
        and the curve endpoints reproduce the endpoint estimates bit for bit.
        """
        return np.einsum("bs,bs->b", self.column(beta_index), self.log_w if f is None else f)

    def squeeze(self, per_item):
        per_item = np.asarray(per_item)
        return float(per_item[0]) if self.single else per_item


def build_weight_table(model, params, x, S, schedule, seed) -> WeightTable:
    """Draw z_s ~ q(.|x) once, score them under p and q, temper per knot.

    Identical seeds give bit-identical tables. A row whose weights are all
    zero means the proposal missed the joint's support entirely. Scores with
    plain arrays in item blocks of about BLOCK samples; a training step makes
    the same call on a lifted view (_scored_table) and differentiates that
    one forward pass.
    """
    return _scored_table(model, params, params.as_dict(), x, S, schedule, seed)[0]


def _scored_table(model, params, view, x, S, schedule, seed):
    """build_weight_table scoring through `view`: (table, U', log p, log q).

    The batch zs is drawn once for all items. A lifted view is scored as one
    block on its tape, so a training step differentiates the very forward
    pass that produced its weights, and the three scores are Vars. A
    tape-free view is scored in blocks of max(1, BLOCK // S) items into one
    log_w, and the three scores come back as None.

    A table that fits one block (every training-size table) is bit-identical
    to the taped one at the same seed. Larger tables agree per item to about
    1e-16 relative: BLAS may round a row differently when the matrix it sits
    in has a different number of rows.
    """
    if S < 1:
        raise DomainError(f"need at least one sample, got S={S}")
    betas = _as_beta_grid(schedule)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    rng = rng_stream(seed, _STREAM_SAMPLES)
    zs = model.sample_q(params, x, S, rng)
    if any(isinstance(v, ad.Var) for v in view.values()):
        u, lj, lq = _instantaneous_bound(model, view, x, zs)
        log_w = value_of(u)
    else:
        log_w = np.empty((x.shape[0], S))
        step = max(1, BLOCK // S)
        for i in range(0, x.shape[0], step):
            log_w[i:i + step] = _instantaneous_bound(model, view, x[i:i + step], zs[i:i + step])[0]
        u = lj = lq = None
    if np.any(np.all(log_w == -np.inf, axis=1)):
        raise DegenerateWeightsError("all importance weights are zero for some observation")
    table = WeightTable(betas=betas, log_w=log_w, norm_w=tempered_columns(log_w, betas),
                        zs=zs, x=x, seed=int(seed), single=single)
    return table, u, lj, lq


def exact_weight_table(model, params, x, schedule) -> WeightTable:
    """Table whose "samples" are all latent states with exact path weights.

    Estimators consuming it compute exact expectations; sampling noise is
    zero, which is what the exact_enumeration estimator kind means.
    """
    from .oracles import enumerate_states  # deferred: oracles imports nothing from here

    betas = _as_beta_grid(schedule)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    enum = enumerate_states(model, params, x)
    norm_w = enum.path_weights(betas)[None, :, :]
    return WeightTable(betas=betas, log_w=enum.u[None, :], norm_w=norm_w,
                       zs=model.all_states()[None, :], x=x, seed=0, single=single,
                       meta={"exact": True})


def expectation(table: WeightTable, beta_index, f_values):
    """Self-normalized estimate sum_s w_s^beta f(z_s); scalar for single-x tables."""
    f = np.asarray(f_values, dtype=np.float64)
    if table.single and f.ndim == 1:
        f = f[None, :]
    if f.shape != table.log_w.shape:
        raise ShapeError(f"f_values shape {f.shape} does not match table {table.log_w.shape}")
    return table.squeeze(table.expect(beta_index, f))


@dataclass
class GradientEstimate:
    """Flat gradient over lambda = (theta, phi) with estimator provenance."""

    vector: np.ndarray
    estimator_kind: str
    S: int
    K: int
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if not np.all(np.isfinite(self.vector)):
            raise NumericalError("gradient estimate has non-finite entries")


def _check_finite_grad(vector, params):
    bad = np.nonzero(~np.isfinite(vector))[0]
    if bad.size:
        name = params.segment_of_index(int(bad[0]))
        raise NumericalError(f"non-finite gradient component in segment {name}")


def _instantaneous_bound(model, view, x, zs):
    """U'(z) = log p(x,z) - log q(z|x) as a differentiable (B, S) value."""
    lj = model.log_joint(view, x, zs)
    lq = model.log_q(view, x, zs)
    return ad.sub(lj, lq), lj, lq


def _log_path(lj, lq, beta):
    if beta == 0.0:
        return lq
    if beta == 1.0:
        return lj
    return ad.add(ad.mul(float(beta), lj), ad.mul(1.0 - float(beta), lq))


def _covariance_surrogate(table, terms, f_var, lj, lq):
    """Per-datum scalar whose gradient is the sum over (k, width) in `terms`
    of width * (E^_k[grad f] + Cov^_k[grad log pi~_k, f]), every expectation
    under column k of `table`.

    With every inner expectation taken from the same weight column, the
    one-sided form E^[(f - E^ f) grad log pi~] equals the full covariance,
    so a single detached coefficient per sample suffices. Each term is
    linear in f and in log pi~_k = beta_k log p + (1 - beta_k) log q, so the
    terms sum to one coefficient per sample on each of f, log p and log q:
    the tape holds the same few nodes for any number of terms.
    """
    f_det = value_of(f_var)
    on_f = on_lj = on_lq = 0.0
    for k, width in terms:
        wbar = table.column(k)
        beta = float(table.betas[k])
        f_bar = table.expect(k, f_det)[:, None]
        coeff = width * wbar * (f_det - f_bar)
        on_f = on_f + width * wbar
        on_lj = on_lj + beta * coeff
        on_lq = on_lq + (1.0 - beta) * coeff
    score = ad.add(ad.mul(on_lj, lj), ad.mul(on_lq, lq))
    return ad.tsum(ad.add(ad.mul(on_f, f_var), score), axis=1)


def _finish(per_item_surrogate, params, view, mask_prefixes=None):
    total = ad.tmean(per_item_surrogate)
    backward(total)
    grad = params.collect_grad(view)
    if mask_prefixes is not None:
        params.zero_outside(grad, mask_prefixes)
    return grad


def covariance_gradient(model, params, x, f, table: WeightTable, beta_index) -> GradientEstimate:
    """Score-function gradient of E_pi_beta[f] with the built-in average baseline.

    grad = E^[grad f] + Cov^[grad log pi~_beta, f], every expectation taken
    under the same tempered column of `table` (nested sample reuse). Touches
    only the unnormalized path density, never its normalizing constant.
    """
    tape = Tape()
    view = params.lift(tape)
    u, lj, lq = _instantaneous_bound(model, view, table.x, table.zs)
    f_var = u if f is None else f(view, table.x, table.zs)
    per_item = _covariance_surrogate(table, [(beta_index, 1.0)], f_var, lj, lq)
    grad = _finish(per_item, params, view)
    _check_finite_grad(grad, params)
    return GradientEstimate(grad, "covariance", table.n_samples, table.betas.size - 1, table.seed)


def reinforce_gradient(model, params, x, f, table: WeightTable, beta_index) -> GradientEstimate:
    """Plain score-function estimate E^[grad f] + E^[f grad log q], no baseline.

    Only defined at beta = 0, where the path density is the normalized q and
    the score of the normalizing constant vanishes.
    """
    beta = float(table.betas[beta_index])
    if beta != 0.0:
        raise UnsupportedEstimatorError(
            "plain REINFORCE needs the normalized path density, which is only "
            "tractable at beta = 0; use the covariance estimator instead")
    tape = Tape()
    view = params.lift(tape)
    u, _, lq = _instantaneous_bound(model, view, table.x, table.zs)
    f_var = u if f is None else f(view, table.x, table.zs)
    wbar = table.column(beta_index)
    coeff = wbar * value_of(f_var)
    direct = ad.tsum(ad.mul(wbar, f_var), axis=1)
    score = ad.tsum(ad.mul(coeff, lq), axis=1)
    grad = _finish(ad.add(direct, score), params, view)
    _check_finite_grad(grad, params)
    return GradientEstimate(grad, "reinforce", table.n_samples, table.betas.size - 1, table.seed)


def independent_inner_gradient(model, params, f, table: WeightTable, beta_index) -> np.ndarray:
    """Two-sided score-function gradient with inner expectations from
    independent batches: E^_A[grad f] + E^_A[(f - b)(grad log pi~ - m)].

    b = E^[f] and m = E^[grad log pi~] come from two separate auxiliary
    batches (sharing one batch would correlate them and bias the estimate by
    Cov/S). This is the no-reuse covariance form; the plain covariance
    estimator is the fully reused special case.
    """
    beta = float(table.betas[beta_index])
    seed_b = int(rng_stream(table.seed, _STREAM_BASELINE, 0).integers(2 ** 31))
    seed_m = int(rng_stream(table.seed, _STREAM_BASELINE, 1).integers(2 ** 31))
    aux_b = build_weight_table(model, params, table.x, table.n_samples, table.betas, seed_b)
    if f is None:
        f_main, f_aux = table.log_w, aux_b.log_w
    else:
        numeric = params.as_dict()
        f_main = np.asarray(value_of(f(numeric, table.x, table.zs)))
        f_aux = np.asarray(value_of(f(numeric, aux_b.x, aux_b.zs)))
    wbar = table.column(beta_index)
    baseline = aux_b.expect(beta_index, f_aux)[:, None]
    resid = table.expect(beta_index, f_main)[:, None] - baseline  # E^_A[f] - b per datum

    tape = Tape()
    view = params.lift(tape)
    u, lj, lq = _instantaneous_bound(model, view, table.x, table.zs)
    f_var = u if f is None else f(view, table.x, table.zs)
    direct = ad.tsum(ad.mul(wbar, f_var), axis=1)
    score = ad.tsum(ad.mul(wbar * (f_main - baseline), _log_path(lj, lq, beta)), axis=1)
    grad = _finish(ad.add(direct, score), params, view)

    # subtract (E^_A[f] - b) * E^_aux[grad log pi~], accumulated per datum;
    # the auxiliary batch is scored once, on its own tape
    tape_m = Tape()
    view_m = params.lift(tape_m)
    aux_m, _, lj_m, lq_m = _scored_table(model, params, view_m, table.x, table.n_samples,
                                         table.betas, seed_m)
    wbar_m = aux_m.column(beta_index)
    corr = _finish(ad.tsum(ad.mul(wbar_m * resid, _log_path(lj_m, lq_m, beta)), axis=1),
                   params, view_m)
    return grad - corr


def reinforce_baseline_gradient(model, params, x, f, table: WeightTable, beta_index) -> GradientEstimate:
    """Score-function estimate with baselines from independent batches.

    The score of the normalized path density is grad log pi~ minus its
    expectation (the normalizer's gradient); that correction and the scalar
    baseline E[f] are estimated from separate batches drawn with derived
    seeds, which keeps this estimator distinct from the covariance
    estimator's same-batch reuse.
    """
    grad = independent_inner_gradient(model, params, f, table, beta_index)
    _check_finite_grad(grad, params)
    return GradientEstimate(grad, "reinforce_baseline", table.n_samples,
                            table.betas.size - 1, table.seed)


def reparam_gradient(model, params, x, objective, S, seed) -> GradientEstimate:
    """Pathwise gradient through z = mean + std * eps for location-scale q.

    objective: "elbo" (mean of U' over samples) or "iwae" (log mean weight).
    eps ~ N(0, I) has shape (B, S) + model.latent_shape.
    """
    if getattr(model, "latent", "discrete") != "continuous" or not hasattr(model, "reparam_sample"):
        raise UnsupportedEstimatorError("reparameterization requires a location-scale continuous q")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    eps = rng_stream(seed, _STREAM_REPARAM).normal(size=(x.shape[0], S) + tuple(model.latent_shape))
    tape = Tape()
    view = params.lift(tape)
    z = model.reparam_sample(view, x, eps)
    u = ad.sub(model.log_joint(view, x, z), model.log_q(view, x, z))
    if objective == "elbo":
        per_item = ad.tmean(u, axis=1)
    elif objective == "iwae":
        per_item = ad.sub(ad.logsumexp(u, axis=1), np.log(S))
    else:
        raise DomainError(f"unknown reparameterization objective {objective!r}")
    grad = _finish(per_item, params, view)
    _check_finite_grad(grad, params)
    return GradientEstimate(grad, "reparam", S, 1, int(seed))


def exact_enumeration_gradient(model, params, x, beta, f=None) -> GradientEstimate:
    """Covariance-form gradient with exact path weights from enumeration."""
    table = exact_weight_table(model, params, x, np.array([float(beta)]))
    est = covariance_gradient(model, params, x, f, table, 0)
    return GradientEstimate(est.vector, "exact_enumeration", table.n_samples, 1, 0)


def gradient_std_diagnostic(estimator_fn, repetitions=10, seed=0) -> float:
    """Average over coordinates of the per-coordinate std across repetitions.

    estimator_fn maps a repetition seed to a GradientEstimate; repetition r
    uses the stream (seed, r), so estimates are independent and reproducible.
    """
    if repetitions < 2:
        raise DomainError("need at least 2 repetitions to estimate a standard deviation")
    draws = []
    for rep in range(repetitions):
        rep_seed = int(rng_stream(seed, rep).integers(2 ** 31))
        draws.append(estimator_fn(rep_seed).vector)
    stacked = np.stack(draws, axis=0)
    return float(np.mean(np.std(stacked, axis=0, ddof=1)))
