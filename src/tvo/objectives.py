"""The objective family over one weight table: endpoint bounds, Riemann-sum
bounds of the path integrand, the importance-weighted bound, and the training
gradients that specialize to VI, VAE, wake-sleep, and inference compilation.

The width-weighted Riemann forms are the single implementation; equal spacing
is the special case where every width is 1/K, and K = 1 reduces bit for bit
to the endpoint bounds.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .errors import ConfigError, DegenerateWeightsWarning, ShapeError
from .estimators import (GradientEstimate, WeightTable, _covariance_surrogate,
                         _finish, _scored_table, _STREAM_FRESH,
                         _STREAM_SIMULATE, build_weight_table, reparam_gradient)
from .path import PartitionSchedule, make_schedule
from .util import effective_sample_size, logsumexp, rng_stream

OBJECTIVE_KINDS = ("elbo", "eubo", "tvo_lower", "tvo_upper", "iwae")


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to optimize: objective kind, partition schedule, sample budget,
    which parameter block moves, and where observations come from.

    direction is stored explicitly rather than implied by kind; upper bounds
    are minimized, everything else is maximized.
    """

    kind: str
    schedule: PartitionSchedule | None = None
    S: int = 10
    optimize: str = "both"
    data_source: str = "real"
    direction: str = ""

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ConfigError(f"unknown objective kind {self.kind!r}")
        if self.optimize not in ("theta", "phi", "both"):
            raise ConfigError(f"optimize must be theta|phi|both, got {self.optimize!r}")
        if self.data_source not in ("real", "model_simulated"):
            raise ConfigError(f"data_source must be real|model_simulated, got {self.data_source!r}")
        if self.S < 1:
            raise ConfigError("need at least one sample")
        if self.kind in ("tvo_lower", "tvo_upper"):
            if self.schedule is None or self.schedule.K < 1:
                raise ConfigError(f"{self.kind} needs a schedule with K >= 1")
        schedule = self.schedule if self.schedule is not None else make_schedule(1)
        object.__setattr__(self, "schedule", schedule)
        if not self.direction:
            implied = "minimize" if self.kind in ("eubo", "tvo_upper") else "maximize"
            object.__setattr__(self, "direction", implied)
        if self.direction not in ("maximize", "minimize"):
            raise ConfigError(f"direction must be maximize|minimize, got {self.direction!r}")

    @property
    def maximize(self) -> bool:
        return self.direction == "maximize"


def _g_hat(table: WeightTable) -> np.ndarray:
    """Per-knot integrand estimates sum_s w_s^beta U'(z_s); shape (B, K+1).

    Computed column by column with the same contraction the endpoint
    estimators use, so the K = 1 reductions are bit-identical.
    """
    return np.stack([table.expect(k) for k in range(table.betas.size)], axis=1)


def elbo_estimate(table: WeightTable):
    """Uniform average of U' over the proposal samples (the beta = 0 knot)."""
    return table.squeeze(table.expect(table.beta_index(0.0)))


def eubo_estimate(table: WeightTable):
    """Self-normalized average of U' under the beta = 1 column.

    Warns when the effective sample size of that column drops below 2.
    """
    k = table.beta_index(1.0)
    col = table.column(k)
    ess = effective_sample_size(col, axis=1)
    if np.any(ess < 2.0):
        warnings.warn("effective sample size below 2 in the posterior-end column",
                      DegenerateWeightsWarning, stacklevel=2)
    return table.squeeze(table.expect(k))


def _check_knots(table: WeightTable, schedule: PartitionSchedule):
    if table.betas.size != schedule.betas.size or np.any(table.betas != schedule.betas):
        raise ShapeError(f"table knots {table.betas} do not match schedule {schedule.betas}")


def tvo_lower(table: WeightTable, schedule: PartitionSchedule):
    """Left Riemann sum sum_k width_k g(beta_(k-1)); K = 1 is the ELBO exactly."""
    _check_knots(table, schedule)
    g = _g_hat(table)
    return table.squeeze(g[:, :-1] @ schedule.widths)


def tvo_upper(table: WeightTable, schedule: PartitionSchedule):
    """Right Riemann sum sum_k width_k g(beta_k); K = 1 is the EUBO exactly."""
    _check_knots(table, schedule)
    g = _g_hat(table)
    return table.squeeze(g[:, 1:] @ schedule.widths)


def iwae_estimate(log_w):
    """log mean importance weight, log-sum-exp(log w) - log S."""
    log_w = np.asarray(log_w, dtype=np.float64)
    single = log_w.ndim == 1
    if single:
        log_w = log_w[None, :]
    out = np.asarray(logsumexp(log_w, axis=1)) - np.log(log_w.shape[1])
    return float(out[0]) if single else out


def objective_estimate(spec: ObjectiveSpec, table: WeightTable):
    if spec.kind == "elbo":
        return elbo_estimate(table)
    if spec.kind == "eubo":
        return eubo_estimate(table)
    if spec.kind == "tvo_lower":
        return tvo_lower(table, spec.schedule)
    if spec.kind == "tvo_upper":
        return tvo_upper(table, spec.schedule)
    return table.squeeze(iwae_estimate(table.log_w))


def _optimize_prefixes(spec: ObjectiveSpec):
    if spec.data_source == "model_simulated":
        # sleep-style updates treat the generative side as fixed
        return ("phi/",)
    if spec.optimize == "both":
        return ("theta/", "phi/")
    return (spec.optimize + "/",)


def _riemann_terms(spec: ObjectiveSpec):
    """(beta knot index, width) pairs whose weighted expectations form the objective."""
    betas = spec.schedule.betas
    widths = spec.schedule.widths
    if spec.kind == "elbo":
        return [(0, 1.0)]
    if spec.kind == "eubo":
        return [(betas.size - 1, 1.0)]
    if spec.kind == "tvo_lower":
        return [(k, float(widths[k])) for k in range(betas.size - 1)]
    if spec.kind == "tvo_upper":
        return [(k + 1, float(widths[k])) for k in range(betas.size - 1)]
    raise ConfigError(f"{spec.kind} has no Riemann-term decomposition")


def training_step(spec: ObjectiveSpec, model, params, x, seed, crn=True):
    """One gradient evaluation: (objective value, GradientEstimate).

    The objective is the width-weighted sum of tempered expectations of U';
    each term is differentiated with the covariance estimator. With common
    random numbers (default) one sample batch and one taped forward pass
    serve every term: the weight table, and so the value, comes from the
    taped scores, bit-identical to build_weight_table at the same seed.
    Without, each knot draws its own batch. Model-simulated mode replaces x
    by ancestral draws from the generative model and freezes theta.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if spec.data_source == "model_simulated":
        rng = rng_stream(seed, _STREAM_SIMULATE)
        x, _ = model.sample_joint(params, x.shape[0], rng)
    prefixes = _optimize_prefixes(spec)

    if spec.kind == "iwae":
        if getattr(model, "latent", "") == "continuous" and hasattr(model, "reparam_sample"):
            table = build_weight_table(model, params, x, spec.S, np.array([0.0, 1.0]), seed)
            value = float(np.mean(iwae_estimate(table.log_w)))
            est = reparam_gradient(model, params, x, "iwae", spec.S, seed)
            grad = params.zero_outside(est.vector, prefixes)
            return value, GradientEstimate(grad, "reparam", spec.S, 1, int(seed))
        value, grad = _iwae_gradient(model, params, x, spec.S, seed, prefixes)
        return value, GradientEstimate(grad, "covariance", spec.S, 1, int(seed))

    if not crn:
        return _training_step_no_reuse(spec, model, params, x, seed, prefixes)

    # one sample batch and one tape serve every Riemann term
    tape = Tape()
    view = params.lift(tape)
    shared, u, lj, lq = _scored_table(model, params, view, x, spec.S, spec.schedule.betas, seed)
    value = float(np.mean(np.asarray(objective_estimate(spec, shared))))
    per_item = _covariance_surrogate(shared, _riemann_terms(spec), u, lj, lq)
    grad = _finish(per_item, params, view, mask_prefixes=prefixes)
    estimate = GradientEstimate(grad, "covariance", spec.S, spec.schedule.K, int(seed))
    return value, estimate


def _training_step_no_reuse(spec, model, params, x, seed, prefixes):
    """Common random numbers disabled: every Riemann term draws its own
    batch, and each term's inner expectations (its baselines) come from
    further independent batches. Same estimator family, no sample sharing."""
    from .estimators import independent_inner_gradient

    value_table = build_weight_table(model, params, x, spec.S, spec.schedule.betas, seed)
    value = float(np.mean(np.asarray(objective_estimate(spec, value_table))))
    total = np.zeros(params.size)
    for i, (k, width) in enumerate(_riemann_terms(spec)):
        fresh_seed = int(rng_stream(seed, _STREAM_FRESH, i).integers(2 ** 31))
        table = build_weight_table(model, params, x, spec.S, spec.schedule.betas, fresh_seed)
        total += width * independent_inner_gradient(model, params, None, table, k)
    grad = params.zero_outside(total, prefixes)
    estimate = GradientEstimate(grad, "covariance", spec.S, spec.schedule.K, int(seed))
    return value, estimate


def _iwae_gradient(model, params, x, S, seed, prefixes):
    """(IWAE value, self-normalized gradient sum_s w_s grad log w_s with
    detached weights), both from one taped scoring of one sample batch."""
    tape = Tape()
    view = params.lift(tape)
    table, u, _, _ = _scored_table(model, params, view, x, S, np.array([0.0, 1.0]), seed)
    value = float(np.mean(iwae_estimate(table.log_w)))
    wbar = table.column(table.beta_index(1.0))
    return value, _finish(ad.tsum(ad.mul(wbar, u), axis=1), params, view, mask_prefixes=prefixes)


def training_gradient(spec: ObjectiveSpec, model, params, x, seed, crn=True) -> GradientEstimate:
    """Gradient of the spec's objective at (params, x); see training_step."""
    return training_step(spec, model, params, x, seed, crn=crn)[1]
