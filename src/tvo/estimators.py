"""Tempered self-normalized importance weights and the gradient estimators.

One batch of proposal samples serves every inverse temperature: the
unnormalized weight of a sample under the path density at beta is its plain
importance weight raised to beta, so re-tempering is a cheap re-normalization
(common random numbers across the Riemann-sum terms).

All weight arithmetic stays in log space; the normalized columns come from a
log-sum-exp, never from exponentiating raw weights.

Every score-function gradient (covariance, plain REINFORCE, the baselined
estimator, every Riemann-sum training step and the discrete IWAE step)
differentiates sum_s (a_s log p_s + b_s log q_s + c_s f_s) with detached
per-sample coefficients. _score_coefficients computes them from the table, so
the zero-weight rule holds for every estimator, and _score_surrogate is the
one builder that records that sum on a tape.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from . import autodiff as ad, util
from .autodiff import Tape, backward, value_of
from .errors import (DegenerateWeightsError, DomainError, NumericalError,
                     ShapeError, UnsupportedEstimatorError)
from .oracles import enumerate_states
from .path import PartitionSchedule
from .util import rng_stream

# stream tags for deriving independent RNG streams from one seed
_STREAM_SAMPLES = 101
_STREAM_BASELINE = 103
_STREAM_FRESH = 107
_STREAM_SIMULATE = 109

# samples per item block when a tape-free table is scored, at most: a block
# holds min(BLOCK, autodiff.TILE // w) samples, w the model's widest
# per-sample hidden layer (d_z for the SBN and the VAE), so none of its
# (samples, w) activations exceeds one TILE and each stays cache-sized
BLOCK = 1024
# with two lanes, two blocks are scored at once when a block's (samples, d_x)
# array holds PAIR elements or more; a smaller one (a desk block) spends most
# of its time in Python under the GIL, which the lanes would only pass to and fro
PAIR = 2 * ad.TILE


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

    Every knot from the first to the last nonzero beta is tempered at once,
    in place in the output; beta = 0 knots are exactly uniform and never
    exponentiated.
    """
    log_w = np.asarray(log_w, dtype=np.float64)
    B, S = log_w.shape
    out = np.empty((B, betas.size, S))
    hot = np.flatnonzero(betas)
    if hot.size:
        run = slice(hot[0], hot[-1] + 1)
        t = out[:, run]
        with np.errstate(invalid="ignore"):  # 0 * -inf at an interior beta = 0, reset below
            np.multiply(betas[run, None], log_w[:, None, :], out=t)
        t -= t.max(axis=2, keepdims=True)
        np.exp(t, out=t)
        t /= t.sum(axis=2, keepdims=True)
    out[:, betas == 0.0] = 1.0 / S
    return out


@dataclass
class WeightTable:
    """Per-datum log weights plus their normalized tempered columns.

    One shared sample batch underlies every column, and every estimate read
    from a table is one value per item, (B,); one observation is B = 1.

    The zero-weight rule, kept by contract and deviations: a sample with
    log w = -inf has weight exactly 0 at every beta > 0 and adds exactly 0
    there, although 0 * -inf reads nan; at beta = 0 its weight is 1/S and
    its -inf stands.
    """

    betas: np.ndarray          # (K+1,)
    log_w: np.ndarray          # (B, S)
    norm_w: np.ndarray         # (B, K+1, S)
    zs: object                 # model-specific latent batch, leading dims (B, S)
    x: np.ndarray              # (B, D_x)
    seed: int

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

    @cached_property
    def g(self) -> np.ndarray:
        """Integrand estimates sum_s w_s^beta U'(z_s) at every knot, (B, K+1).

        One contraction for all knots that every bound and the curve read, so
        the K = 1 reductions and the curve endpoints reproduce the endpoint
        estimates bit for bit.
        """
        g = self.contract(self.log_w)
        g.flags.writeable = False  # estimates read views of it
        return g

    @cached_property
    def dead(self):
        """(mask of the dead samples, log w = -inf, (B, S); indices of the
        rows holding one), or None when no sample is dead."""
        mask = self.log_w == -np.inf
        return (mask, np.flatnonzero(mask.any(axis=1))) if mask.any() else None

    def contract(self, f, ks=slice(None)) -> np.ndarray:
        """sum_s w_s^beta f(z_s) per item at the knots `ks`, (B, T)."""
        w = self.norm_w[:, ks]
        out = np.einsum("bts,bs->bt", w, f)
        if self.dead is not None:
            mask, rows = self.dead
            hot = np.flatnonzero(self.betas[ks])
            if hot.size:  # redo those entries without the dead samples
                live = np.where(mask[rows], 0.0, f[rows])
                out[np.ix_(rows, hot)] = np.einsum("bts,bs->bt", w[np.ix_(rows, hot)], live)
        return out

    def deviations(self, f, mean, ks=slice(None)) -> np.ndarray:
        """f(z_s) - mean per item, knot of `ks` and sample, (B, T, S); a dead
        sample's deviation reads 0 where beta > 0, and a deviation from a
        non-finite mean reads nan (inf - inf is never formed)."""
        dev = f[:, None, :] - np.where(np.isfinite(mean), mean, np.nan)[:, :, None]
        if self.dead is not None:
            dev[self.dead[0][:, None, :] & (self.betas[ks] > 0.0)[:, None]] = 0.0
        return dev


def score_blocks(model, view, x, S, seed, pathwise=False):
    """The one loop that turns proposal noise into scores: yields
    (items, z, U', log p, log q) for consecutive item blocks of x.

    A lifted view is scored as one block on its tape, so a training step
    differentiates the very forward pass that produced its weights, and the
    scores are Vars. A plain view is scored as plain arrays in blocks of
    max(1, min(BLOCK, TILE // w) // S) items (w as at BLOCK), in pairs when
    there are two lanes (util.LANES) and blocks are large enough (PAIR): the
    second lane scores the second block of a pair while the caller scores
    the first. The caller draws each block's fresh noise (model.noise_blocks)
    in stream order and blocks come out in order, so the scores are
    bit-identical on one lane or two; a consumer that drops z holds at most
    two blocks' latents. Noise becomes (z, log q) through model.sample_q,
    or, when `pathwise`, through model.reparam_sample, whose z is taped as
    well. A row whose weights are all zero raises
    DegenerateWeightsError, in block order: q missed the joint's support.
    """
    if S < 1:
        raise DomainError(f"need at least one sample, got S={S}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] == 0:
        raise ShapeError("need at least one item to score")
    taped = any(isinstance(v, ad.Var) for v in view.values())
    step = x.shape[0] if taped else max(1, min(BLOCK, ad.TILE // getattr(model, "d_z", 1)) // S)
    sample = model.reparam_sample if pathwise else model.sample_q
    pair = not taped and util.LANES > 1 and step * S * x.shape[1] >= PAIR

    def score(items, noise):
        z, lq = sample(view, x[items], noise)
        lj = model.log_joint(view, x[items], z)
        u = ad.sub(lj, lq)
        if np.any(np.all(value_of(u) == -np.inf, axis=1)):
            raise DegenerateWeightsError("all importance weights are zero for some observation")
        return items, z, u, lj, lq

    blocks = model.noise_blocks(rng_stream(seed, _STREAM_SAMPLES), x.shape[0], S, step)
    for first in blocks:
        second = next(blocks, None) if pair else None
        if second is None:
            yield score(*first)
            continue
        with util.on_second_lane(score, *second) as other:
            yield score(*first)
        yield other.result()


def iwae_estimate(log_w):
    """log mean importance weight per item, logsumexp(log w) - log S; 1-D log w is one item."""
    log_w = np.atleast_2d(np.asarray(log_w, dtype=np.float64))
    return util.logsumexp(log_w, axis=1)[:, 0] - np.log(log_w.shape[1])


def table_blocks(model, params, x, S, seed, betas):
    """Each tape-free block of S proposal samples per item of x, as a
    WeightTable tempered on `betas` without latents: the one consumer of
    tape-free score_blocks. A caller that holds a block's table until the
    next one exists (a loop variable does) keeps glibc from trimming the
    heap top after each block and faulting it in again for the next.
    """
    betas = _as_beta_grid(betas)
    for _, _, log_w, _, _ in score_blocks(model, params.as_dict(), x, S, seed):
        yield WeightTable(betas, log_w, tempered_columns(log_w, betas), None, None, seed)


def build_weight_table(model, params, x, S, schedule, seed) -> WeightTable:
    """Draw z_s ~ q(.|x), score them under p and q, temper per knot.

    Identical seeds give bit-identical tables. A row whose weights are all
    zero means the proposal missed the joint's support entirely. Draws and
    scores with plain arrays in item blocks (score_blocks); a training step
    makes the same call on a lifted view (_scored_table) and differentiates
    that one forward pass.
    """
    return _scored_table(model, params, params.as_dict(), x, S, schedule, seed)[0]


def _scored_table(model, params, view, x, S, schedule, seed):
    """build_weight_table scoring through `view`: (table, U', log p, log q).

    Collects the blocks of score_blocks. One block is used as it is: its
    log_w and zs are the scored arrays themselves, so a training step copies
    nothing, and its three scores come back (Vars on a lifted view, which is
    always one block). Several blocks are concatenated, and the scores come
    back as None.

    A table that fits one block (every training-size table) is bit-identical
    to the taped one at the same seed. Larger tables agree per item to about
    1e-16 relative: BLAS may round a row differently when the matrix it sits
    in has a different number of rows.
    """
    x = np.asarray(x, dtype=np.float64)
    blocks = [scores for _, *scores in score_blocks(model, view, x, S, seed)]
    if len(blocks) == 1:
        (zs, u, lj, lq), = blocks
        log_w = value_of(u)
    else:
        zs = np.concatenate([z for z, *_ in blocks])
        log_w = np.concatenate([u for _, u, *_ in blocks])
        u = lj = lq = None
    betas = _as_beta_grid(schedule)
    table = WeightTable(betas, log_w, tempered_columns(log_w, betas), zs, np.atleast_2d(x),
                        int(seed))
    return table, u, lj, lq


def exact_weight_table(model, params, x, schedule) -> WeightTable:
    """Table whose "samples" are all latent states with exact path weights.

    Estimators consuming it compute exact expectations; sampling noise is
    zero.
    """
    betas = _as_beta_grid(schedule)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    enum = enumerate_states(model, params, x)
    norm_w = enum.path_weights(betas)[None, :, :]
    return WeightTable(betas=betas, log_w=enum.u[None, :], norm_w=norm_w,
                       zs=model.all_states()[None, :], x=x, seed=0)


def expectation(table: WeightTable, beta_index, f_values):
    """Self-normalized estimate sum_s w_s^beta f(z_s) per item; f_values is (B, S) like log_w."""
    f = np.asarray(f_values, dtype=np.float64)
    if f.shape != table.log_w.shape:
        raise ShapeError(f"f_values shape {f.shape} does not match table {table.log_w.shape}")
    table.column(beta_index)  # validates the index
    return table.contract(f, [beta_index])[:, 0]


@dataclass
class GradientEstimate:
    """Flat gradient over lambda = (theta, phi); a pathwise estimate carries
    its taped U' values in meta["log_w"]."""

    vector: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)


def _instantaneous_bound(model, view, x, zs):
    """U'(z) = log p(x,z) - log q(z|x) as a differentiable (B, S) value."""
    lj = model.log_joint(view, x, zs)
    lq = model.log_q(view, x, zs)
    return ad.sub(lj, lq), lj, lq


def _score_coefficients(table, terms, f, mean=None):
    """Detached per-sample coefficients (on log p, on log q, on f), each
    (B, S), of the score-function surrogate summed over the (k, width) pairs
    in `terms`.

    Term k is width * (E^_k[grad f] + E^_k[(f - mean_k) grad log pi~_k]),
    every expectation under column k of `table`. log pi~_k = beta_k log p +
    (1 - beta_k) log q is linear in log p and log q, so the terms sum to one
    coefficient per sample on each, folded in order along a term axis, as a
    per-term loop would add them. mean (B, T) defaults to E^_k[f] from the
    same column (table.g when f is the table's log w), where the one-sided
    form equals the full covariance: the covariance estimator. When f is
    log w, a non-finite mean raises NumericalError, as the bound estimate
    is then not finite; a non-finite explicit f is left to _finish, which
    names the segment. A zero-weight sample's deviation reads 0 where beta > 0
    (WeightTable.deviations). Without a beta > 0 the path density is q
    alone and the log p coefficient is absent (None).
    """
    ks = [k for k, _ in terms]
    widths = np.array([width for _, width in terms])[:, None]
    betas = table.betas[ks]
    weighted = widths * table.norm_w[:, ks]  # (B, T, S)
    if mean is None:
        mean = table.g[:, ks] if f is table.log_w else table.contract(f, ks)
    if f is table.log_w and not np.isfinite(mean).all():
        raise NumericalError("non-finite E[U'] at a knot: the bound estimate is not finite")
    coeff = weighted * table.deviations(f, mean, ks)
    if not betas.any():
        return None, coeff.sum(axis=1), weighted.sum(axis=1)
    on_lj, on_lq = np.einsum("ct,bts->cbs", np.stack([betas, 1.0 - betas]), coeff)
    return on_lj, on_lq, weighted.sum(axis=1)


def _score_surrogate(pairs):
    """Per-item sum_s of a_s v_s over the (detached coefficient a, Var v)
    pairs: the scalar whose gradient is a score-function estimate. Records
    one product per coefficient, the adds between them and one sum, in pair
    order; an absent (None) coefficient records no node."""
    # only the gradient is read: a zero-weight sample's 0 * -inf makes the value nan
    with np.errstate(invalid="ignore"):
        return ad.tsum(reduce(ad.add, [ad.mul(a, v) for a, v in pairs if a is not None]), axis=1)


def _finish(per_item_surrogate, params, view, mask_prefixes=None):
    """Flat gradient of the mean surrogate, masked to `mask_prefixes`; the
    one finiteness check of a backward pass, naming the first bad segment."""
    total = ad.tmean(per_item_surrogate)
    backward(total)
    grad = params.collect_grad(view)
    if mask_prefixes is not None:
        params.zero_outside(grad, mask_prefixes)
    finite = np.isfinite(grad)
    if not finite.all():
        name = params.segment_of_index(int(np.argmin(finite)))
        raise NumericalError(f"non-finite gradient component in segment {name}")
    return grad


def _table_gradient(model, params, f, table, beta_index, mean=None, scored=None) -> np.ndarray:
    """Score-function gradient at one knot; `mean` as in _score_coefficients.
    `scored` is the (lifted view, U', log p, log q) of a table taped by
    _scored_table; without it the table's own batch is scored on a fresh
    tape."""
    if scored is None:
        view = params.lift(Tape())
        u, lj, lq = _instantaneous_bound(model, view, table.x, table.zs)
    else:
        view, u, lj, lq = scored
    f_var = u if f is None else f(view, table.x, table.zs)
    coeffs = _score_coefficients(table, [(beta_index, 1.0)], value_of(f_var), mean)
    return _finish(_score_surrogate(zip(coeffs, (lj, lq, f_var))), params, view)


def covariance_gradient(model, params, f, table: WeightTable, beta_index) -> GradientEstimate:
    """Score-function gradient of E_pi_beta[f] with the built-in average baseline.

    grad = E^[grad f] + Cov^[grad log pi~_beta, f], every expectation taken
    under the same tempered column of `table` (nested sample reuse). Touches
    only the unnormalized path density, never its normalizing constant.
    """
    return GradientEstimate(_table_gradient(model, params, f, table, beta_index))


def reinforce_gradient(model, params, f, table: WeightTable, beta_index) -> GradientEstimate:
    """Plain score-function estimate E^[grad f] + E^[f grad log q], no baseline.

    Only defined at beta = 0, where the path density is the normalized q and
    the score of the normalizing constant vanishes: the covariance form with
    mean 0.
    """
    if table.betas[beta_index] != 0.0:
        raise UnsupportedEstimatorError(
            "plain REINFORCE needs the normalized path density, which is only "
            "tractable at beta = 0; use the covariance estimator instead")
    zero = np.zeros((table.log_w.shape[0], 1))
    return GradientEstimate(_table_gradient(model, params, f, table, beta_index, zero))


def reinforce_baseline_gradient(model, params, f, table: WeightTable, beta_index,
                                scored=None) -> GradientEstimate:
    """Two-sided score-function gradient with inner expectations from
    independent batches: E^_A[grad f] + E^_A[(f - b)(grad log pi~ - m)].

    The score of the normalized path density is grad log pi~ minus its
    expectation m (the normalizer's gradient). m and the scalar baseline
    b = E^[f] come from two separate auxiliary batches drawn with derived
    seeds (sharing one batch would correlate them and bias the estimate by
    Cov/S). This is the no-reuse covariance form; the covariance estimator
    is the fully reused special case. `scored` as in _table_gradient.
    """
    seed_b, seed_m = (int(rng_stream(table.seed, _STREAM_BASELINE, i).integers(2 ** 31))
                      for i in (0, 1))
    aux_b = build_weight_table(model, params, table.x, table.n_samples, table.betas, seed_b)
    if f is None:
        f_main, f_aux = table.log_w, aux_b.log_w
    else:
        numeric = params.as_dict()
        f_main = np.asarray(value_of(f(numeric, table.x, table.zs)))
        f_aux = np.asarray(value_of(f(numeric, aux_b.x, aux_b.zs)))
    baseline = aux_b.contract(f_aux, [beta_index])
    grad = _table_gradient(model, params, f, table, beta_index, baseline, scored)
    resid = table.contract(f_main, [beta_index]) - baseline  # E^_A[f] - b per datum, (B, 1)

    # subtract (E^_A[f] - b) * E^_aux[grad log pi~]: the auxiliary batch is
    # scored once, on its own tape, with coefficients on log p and log q only
    tape = Tape()
    view = params.lift(tape)
    aux_m, _, lj, lq = _scored_table(model, params, view, table.x, table.n_samples,
                                     table.betas, seed_m)
    const = np.broadcast_to(resid, aux_m.log_w.shape)
    on_lj, on_lq, _ = _score_coefficients(aux_m, [(beta_index, 1.0)], const, np.zeros_like(resid))
    return GradientEstimate(grad - _finish(_score_surrogate([(on_lj, lj), (on_lq, lq)]), params, view))


def reparam_gradient(model, params, x, objective, S, seed) -> GradientEstimate:
    """Pathwise gradient through z = mean + std * eps for location-scale q.

    objective: "elbo" (mean of U' over samples) or "iwae" (log mean weight).
    score_blocks draws eps and scores it pathwise on a lifted view, as the
    one block that a taped table at the same seed draws: z, and the taped U'
    values returned in meta["log_w"], are bit-identical to
    build_weight_table's at that seed, so a training step takes its value
    from this one pass.
    """
    if not hasattr(model, "reparam_sample"):
        raise UnsupportedEstimatorError("reparameterization requires a location-scale continuous q")
    if objective not in ("elbo", "iwae"):
        raise DomainError(f"unknown reparameterization objective {objective!r}")
    view = params.lift(Tape())
    (_, _, u, _, _), = score_blocks(model, view, x, S, seed, pathwise=True)
    if objective == "elbo":
        per_item = ad.tmean(u, axis=1)
    else:
        per_item = ad.sub(ad.logsumexp(u, axis=1), np.log(S))
    return GradientEstimate(_finish(per_item, params, view), meta={"log_w": value_of(u)})


def exact_enumeration_gradient(model, params, x, beta, f=None) -> GradientEstimate:
    """Covariance-form gradient with exact path weights from enumeration."""
    table = exact_weight_table(model, params, x, np.array([float(beta)]))
    return covariance_gradient(model, params, f, table, 0)


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
