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

from .autodiff import Tape, value_of
from .errors import ConfigError, DegenerateWeightsWarning, ShapeError
from .estimators import (GradientEstimate, WeightTable, _finish, _score_coefficients,
                         _score_surrogate, _scored_table, _STREAM_FRESH,
                         _STREAM_SIMULATE, build_weight_table, iwae_estimate,
                         reinforce_baseline_gradient, reparam_gradient)
from .path import PartitionSchedule, make_schedule
from .util import effective_sample_size, rng_stream

OBJECTIVE_KINDS = ("elbo", "eubo", "tvo_lower", "tvo_upper", "iwae")


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to optimize: objective kind, partition schedule, sample budget,
    which parameter block moves, and where observations come from.
    """

    kind: str
    schedule: PartitionSchedule | None = None
    S: int = 10
    optimize: str = "both"
    data_source: str = "real"

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
        else:  # the ELBO and EUBO are the K = 1 Riemann sums; IWAE reads no knots
            object.__setattr__(self, "schedule", make_schedule(1))

    @property
    def maximize(self) -> bool:
        """Upper bounds are minimized, everything else is maximized."""
        return self.kind not in ("eubo", "tvo_upper")


def elbo_estimate(table: WeightTable):
    """Uniform average of U' over the proposal samples (the beta = 0 knot)."""
    return table.squeeze(table.g[:, table.beta_index(0.0)])


def eubo_estimate(table: WeightTable):
    """Self-normalized average of U' under the beta = 1 column.

    Warns when the effective sample size of that column drops below 2.
    """
    k = table.beta_index(1.0)
    if np.any(effective_sample_size(table.column(k), axis=1) < 2.0):
        warnings.warn("effective sample size below 2 in the posterior-end column",
                      DegenerateWeightsWarning, stacklevel=2)
    return table.squeeze(table.g[:, k])


def _check_knots(table: WeightTable, schedule: PartitionSchedule):
    tb, sb = table.betas, schedule.betas  # a table tempered on the schedule holds its array
    if tb is not sb and (tb.size != sb.size or np.any(tb != sb)):
        raise ShapeError(f"table knots {table.betas} do not match schedule {schedule.betas}")


def tvo_lower(table: WeightTable, schedule: PartitionSchedule):
    """Left Riemann sum sum_k width_k g(beta_(k-1)); K = 1 is the ELBO exactly."""
    _check_knots(table, schedule)
    return table.squeeze(table.g[:, :-1] @ schedule.widths)


def tvo_upper(table: WeightTable, schedule: PartitionSchedule):
    """Right Riemann sum sum_k width_k g(beta_k); K = 1 is the EUBO exactly."""
    _check_knots(table, schedule)
    return table.squeeze(table.g[:, 1:] @ schedule.widths)


def objective_estimate(spec: ObjectiveSpec, table: WeightTable):
    if spec.kind == "iwae":
        return table.squeeze(iwae_estimate(table.log_w))
    if spec.kind == "eubo":
        return eubo_estimate(table)
    return (tvo_lower if spec.maximize else tvo_upper)(table, spec.schedule)


def _optimize_prefixes(spec: ObjectiveSpec):
    if spec.data_source == "model_simulated":
        # sleep-style updates treat the generative side as fixed
        return ("phi/",)
    if spec.optimize == "both":
        return ("theta/", "phi/")
    return (spec.optimize + "/",)


def _riemann_terms(spec: ObjectiveSpec):
    """(beta knot index, width) pairs whose weighted expectations form the
    objective: the left knots of a lower bound, the right knots of an upper."""
    first = 0 if spec.maximize else 1
    return [(k + first, float(width)) for k, width in enumerate(spec.schedule.widths)]


def training_step(spec: ObjectiveSpec, model, params, x, seed, crn=True):
    """One gradient evaluation: (objective value, GradientEstimate).

    The objective is the width-weighted sum of tempered expectations of U';
    each term is differentiated with the covariance estimator. With common
    random numbers (default) one sample batch and one taped forward pass
    serve every term: the weight table, and so the value, comes from the
    taped scores, bit-identical to build_weight_table at the same seed. The
    IWAE step of a reparameterizable model likewise takes its value from the
    pathwise pass's own batch. Without, each knot draws its own batch.
    Model-simulated mode replaces x by ancestral draws from the generative
    model and freezes theta.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if spec.data_source == "model_simulated":
        rng = rng_stream(seed, _STREAM_SIMULATE)
        x, _ = model.sample_joint(params, x.shape[0], rng)
    prefixes = _optimize_prefixes(spec)

    if spec.kind == "iwae":
        if hasattr(model, "reparam_sample"):
            # the pathwise pass scores build_weight_table's batch on its tape
            est = reparam_gradient(model, params, x, "iwae", spec.S, seed)
            value = float(np.mean(iwae_estimate(est.meta["log_w"])))
            return value, GradientEstimate(params.zero_outside(est.vector, prefixes))
        value, grad = _iwae_gradient(model, params, x, spec.S, seed, prefixes)
        return value, GradientEstimate(grad)

    if not crn:
        return _training_step_no_reuse(spec, model, params, x, seed, prefixes)

    # one sample batch and one tape serve every Riemann term
    tape = Tape()
    view = params.lift(tape)
    shared, u, lj, lq = _scored_table(model, params, view, x, spec.S, spec.schedule, seed)
    value = float(np.mean(np.asarray(objective_estimate(spec, shared))))
    coeffs = _score_coefficients(shared, _riemann_terms(spec), value_of(u))
    per_item = _score_surrogate(zip(coeffs, (lj, lq, u)))
    return value, GradientEstimate(_finish(per_item, params, view, mask_prefixes=prefixes))


def _training_step_no_reuse(spec, model, params, x, seed, prefixes):
    """Common random numbers disabled: every Riemann term draws its own
    batch, and each term's inner expectations (its baselines) come from
    further independent batches. Same estimator family, no sample sharing."""
    value_table = build_weight_table(model, params, x, spec.S, spec.schedule, seed)
    value = float(np.mean(np.asarray(objective_estimate(spec, value_table))))
    total = np.zeros(params.size)
    for i, (k, width) in enumerate(_riemann_terms(spec)):
        fresh_seed = int(rng_stream(seed, _STREAM_FRESH, i).integers(2 ** 31))
        # the term's batch is scored once, on the tape its gradient reads
        view = params.lift(Tape())
        table, *scores = _scored_table(model, params, view, x, spec.S, spec.schedule, fresh_seed)
        total += width * reinforce_baseline_gradient(model, params, None, table, k,
                                                     (view, *scores)).vector
    return value, GradientEstimate(params.zero_outside(total, prefixes))


def _iwae_gradient(model, params, x, S, seed, prefixes):
    """(IWAE value, self-normalized gradient sum_s w_s grad log w_s with
    detached weights), both from one taped scoring of one sample batch."""
    tape = Tape()
    view = params.lift(tape)
    table, u, _, _ = _scored_table(model, params, view, x, S, np.array([0.0, 1.0]), seed)
    value = float(np.mean(iwae_estimate(table.log_w)))
    wbar = table.column(table.beta_index(1.0))
    return value, _finish(_score_surrogate([(wbar, u)]), params, view, mask_prefixes=prefixes)

