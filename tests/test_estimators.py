import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mc_mean_se
from tvo import autodiff as ad
from tvo import estimators as est
from tvo import oracles
from tvo.errors import (DegenerateWeightsError, DomainError, NumericalError, ShapeError,
                        UnsupportedEstimatorError)
from tvo.objectives import eubo_estimate, tvo_upper
from tvo.path import PartitionSchedule, integrand_curve, make_schedule
from tvo.models import (ConjugateGaussian, GaussianVAE, SigmoidBeliefNet,
                        ToyBernoulli, random_conjugate_gaussian, random_toy)
from tvo.util import rng_stream

SQRT3 = np.sqrt(3.0)


def toy_setup(seed=3, m=2, d_x=1):
    model, params = random_toy(seed, m=m, d_x=d_x)
    x = np.ones(d_x)
    return model, params, x


# weight tables ---------------------------------------------------------------


def test_beta_zero_column_is_exactly_uniform():
    model, params, x = toy_setup()
    table = est.build_weight_table(model, params, x, 7, np.array([0.0, 0.3, 1.0]), 5)
    np.testing.assert_array_equal(table.column(0), np.full((1, 7), 1.0 / 7))


def test_tempered_columns_frozen_two_weight_case():
    # w = (1, 3): at beta = 0.5 the tempered weights are (1, sqrt 3) normalized,
    # at beta = 1 they are (1/4, 3/4)
    log_w = np.array([[0.0, np.log(3.0)]])
    cols = est.tempered_columns(log_w, np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(cols[0, 1], [1 / (1 + SQRT3), SQRT3 / (1 + SQRT3)], atol=1e-12)
    np.testing.assert_allclose(cols[0, 1], [0.36602540378443865, 0.6339745962155614], atol=1e-11)
    np.testing.assert_allclose(cols[0, 2], [0.25, 0.75], atol=1e-12)


def _per_knot_columns(log_w, betas):
    # one knot at a time, the way tempered_columns must temper every knot at once
    B, S = log_w.shape
    out = np.empty((B, betas.size, S))
    for k, beta in enumerate(betas):
        if beta == 0.0:
            out[:, k, :] = 1.0 / S
            continue
        scaled = beta * log_w
        w = np.exp(scaled - scaled.max(axis=1, keepdims=True))
        out[:, k, :] = w / w.sum(axis=1, keepdims=True)
    return out


@pytest.mark.parametrize("S", [10, 500])
@pytest.mark.parametrize("grid", ["K1", "K2", "K5", "K50", "lone-zero"])
@pytest.mark.parametrize("with_neg_inf", [False, True])
def test_tempering_and_integrand_match_a_per_knot_loop(S, grid, with_neg_inf):
    rng = np.random.default_rng(S)
    log_w = rng.normal(size=(4, S)) * 30.0 - 100.0
    if with_neg_inf:
        log_w[1, ::3] = -np.inf
        log_w[3, 1:] = -np.inf
    betas = (np.array([0.0]) if grid == "lone-zero"
             else make_schedule(int(grid[1:]), 0.01, "log").betas)
    want = _per_knot_columns(log_w, betas)
    got = est.tempered_columns(log_w, betas)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    table = est.WeightTable(betas=betas, log_w=log_w, norm_w=got, zs=None, x=np.zeros((4, 1)), seed=0)
    # zero-weight samples add nothing at beta > 0; g(0) of their rows is -inf
    dead = np.isneginf(log_w)
    with np.errstate(invalid="ignore"):
        g_want = np.stack([np.einsum("bs,bs->b", want[:, k],
                                     np.where(dead, 0.0, log_w) if beta > 0 else log_w)
                           for k, beta in enumerate(betas)], axis=1)
    np.testing.assert_array_equal(table.g.view(np.uint64), g_want.view(np.uint64))
    assert not np.any(np.isnan(table.g))


@pytest.mark.parametrize("K", [1, 5, 50])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_surrogate_coefficients_match_a_per_term_loop(K, side):
    # the surrogate's gradients on f, log p and log q are its per-sample
    # coefficients; they must equal the per-term loop's sums bit for bit
    rng = np.random.default_rng(K)
    log_w = rng.normal(size=(3, 10)) * 4.0
    f = rng.normal(size=(3, 10))
    betas = make_schedule(K, 0.01, "log").betas
    table = est.WeightTable(betas=betas, log_w=log_w, norm_w=est.tempered_columns(log_w, betas),
                            zs=None, x=np.zeros((3, 1)), seed=0)
    shift = 0 if side == "lower" else 1
    terms = [(k + shift, float(w)) for k, w in enumerate(np.diff(betas))]
    want = [0.0, 0.0, 0.0]  # on log p, on log q, on f
    for k, width in terms:
        wbar = table.norm_w[:, k, :]
        coeff = width * wbar * (f - np.einsum("bs,bs->b", wbar, f)[:, None])
        want = [want[0] + betas[k] * coeff, want[1] + (1.0 - betas[k]) * coeff,
                want[2] + width * wbar]
    tape = ad.Tape()
    leaves = [tape.leaf(v) for v in (log_w, log_w, f)]
    coeffs = est._score_coefficients(table, terms, f)
    ad.backward(ad.tsum(est._score_surrogate(zip(coeffs, leaves))))
    # the lower K = 1 term sits at beta = 0: no log p coefficient, no log p node
    assert (coeffs[0] is None) == (K == 1 and side == "lower")
    for leaf, coeff, ref in zip(leaves, coeffs, want):
        if coeff is not None:
            np.testing.assert_array_equal(leaf.grad.view(np.uint64), ref.view(np.uint64))
        else:
            assert leaf.grad is None


def _zero_weight_toy():
    # p(x = 1 | z = 0) = 0, so every draw of z = 0 has log w = -inf
    model, params = random_toy(3, m=2, d_x=1)
    lik = params.as_dict()["theta/likelihood"].copy()
    lik[0, 1] = -np.inf
    return model, ad.ParamVector.build({**params.as_dict(), "theta/likelihood": lik})


def test_zero_weight_samples_drop_out_of_the_integrand():
    model, params = _zero_weight_toy()
    betas = np.array([0.0, 0.2, 0.6, 1.0])
    table = est.build_weight_table(model, params, np.array([1.0]), 50, betas, 0)
    dead = np.isneginf(table.log_w[0])
    assert 0 < dead.sum() < 50
    mask, rows = table.dead
    assert np.array_equal(mask[0], dead) and rows.tolist() == [0]
    live = table.log_w[0, ~dead]
    for k, beta in enumerate(betas[1:], 1):
        w = np.exp(beta * live - np.max(beta * live))
        assert table.g[0, k] == pytest.approx(w @ live / w.sum(), rel=1e-14)
    assert table.g[0, 0] == -np.inf
    assert np.isfinite(tvo_upper(table, PartitionSchedule(betas)))
    assert np.isfinite(eubo_estimate(table))
    curve = integrand_curve(model, params, np.array([1.0]), np.linspace(0.2, 1.0, 5), 50, 0)
    assert np.all(np.isfinite(curve.values))
    assert np.all(np.isfinite(curve.std_errors))
    for beta, g, se in zip(curve.betas, curve.values, curve.std_errors):
        w = np.exp(beta * live - np.max(beta * live))
        w /= w.sum()
        assert g == pytest.approx(w @ live, rel=1e-14)
        assert se == pytest.approx(np.sqrt(np.sum(w ** 2 * (live - w @ live) ** 2)), rel=1e-12)


@pytest.mark.parametrize("kind,crn", [("tvo_upper", True), ("eubo", True),
                                      ("tvo_upper", False), ("eubo", False)],
                         ids=["tvo_upper", "eubo", "tvo_upper-no-crn", "eubo-no-crn"])
def test_zero_weight_samples_leave_upper_bound_steps_finite(kind, crn):
    from tvo.objectives import ObjectiveSpec, training_step

    model, params = _zero_weight_toy()
    value, grad = training_step(ObjectiveSpec(kind, make_schedule(3), 50), model, params,
                                np.array([1.0]), 0, crn=crn)
    assert np.isfinite(value)
    assert np.all(np.isfinite(grad.vector))


@pytest.mark.parametrize("crn", [True, False], ids=["crn", "no-crn"])
@pytest.mark.parametrize("kind", ["elbo", "eubo", "tvo_lower", "tvo_upper", "iwae"])
def test_zero_weight_steps_raise_or_pass_without_warnings(kind, crn):
    # E[U'] at beta = 0 is -inf here: a step that reads that knot raises
    # NumericalError before any -inf - -inf forms, and every other step is
    # finite, with no RuntimeWarning either way
    from tvo.objectives import ObjectiveSpec, training_step

    model, params = _zero_weight_toy()
    step = lambda: training_step(ObjectiveSpec(kind, make_schedule(3), 50),  # noqa: E731
                                 model, params, np.array([1.0]), 0, crn=crn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind in ("elbo", "tvo_lower"):
            with pytest.raises(NumericalError):
                step()
        else:
            value, grad = step()
            assert np.isfinite(value) and np.all(np.isfinite(grad.vector))


def test_zero_weight_samples_get_zero_covariance_coefficients():
    model, params = _zero_weight_toy()
    betas = np.array([0.0, 0.2, 0.6, 1.0])
    table = est.build_weight_table(model, params, np.array([1.0]), 50, betas, 0)
    dead = np.isneginf(table.log_w[0])
    assert 0 < dead.sum() < 50
    log_w = table.log_w[:, ~dead]
    live = est.WeightTable(betas=betas, log_w=log_w, norm_w=est.tempered_columns(log_w, betas),
                           zs=table.zs[:, ~dead], x=table.x, seed=0)
    assert live.dead is None
    for k in range(1, betas.size):
        got = est.covariance_gradient(model, params, None, table, k).vector
        want = est.covariance_gradient(model, params, None, live, k).vector
        np.testing.assert_allclose(got, want, rtol=1e-12)
    exact = est.exact_enumeration_gradient(model, params, np.array([1.0]), 0.5)
    assert np.all(np.isfinite(exact.vector))
    # at beta = 0 a dead sample keeps weight 1/S, so g(0) = -inf and the gradient aborts
    from tvo.errors import NumericalError

    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
        est.covariance_gradient(model, params, None, table, 0)


def _zero_weight_table():
    model, params = _zero_weight_toy()
    table = est.build_weight_table(model, params, np.array([1.0]), 50, np.array([0.0, 0.5, 1.0]), 0)
    dead = np.isneginf(table.log_w[0])
    assert 0 < dead.sum() < 50
    return model, params, table, table.log_w[0, ~dead]


@pytest.mark.parametrize("k", [1, 2])
def test_zero_weight_samples_leave_the_baselined_gradient_finite(k):
    model, params, table, _ = _zero_weight_table()
    grad = est.reinforce_baseline_gradient(model, params, None, table, k)
    assert np.all(np.isfinite(grad.vector))


@pytest.mark.parametrize("k", [1, 2])
def test_zero_weight_samples_drop_out_of_explicit_expectations(k):
    _, _, table, live = _zero_weight_table()
    got = est.expectation(table, k, table.log_w)
    assert got == table.g[0, k]
    w = np.exp(table.betas[k] * live - np.max(table.betas[k] * live))
    assert got == pytest.approx(w @ live / w.sum(), rel=1e-12)


def test_weight_table_seed_determinism():
    model, params, x = toy_setup()
    grid = np.array([0.0, 0.5, 1.0])
    t1 = est.build_weight_table(model, params, x, 32, grid, 11)
    t2 = est.build_weight_table(model, params, x, 32, grid, 11)
    assert np.array_equal(t1.log_w, t2.log_w)
    assert np.array_equal(t1.norm_w, t2.norm_w)
    assert np.array_equal(np.asarray(t1.zs), np.asarray(t2.zs))


def test_weight_table_degenerate_support_raises():
    _, params, x = toy_setup(m=2, d_x=1)

    class NoSupport(ToyBernoulli):
        def log_joint(self, view, xs, zs):
            return np.full(np.asarray(zs).shape, -np.inf)

    model = NoSupport(m=2, d_x=1)
    with pytest.raises(DegenerateWeightsError):
        est.build_weight_table(model, params, x, 4, np.array([0.0, 1.0]), 0)


def test_weight_table_requires_positive_sample_count():
    model, params, x = toy_setup()
    with pytest.raises(DomainError):
        est.build_weight_table(model, params, x, 0, np.array([0.0, 1.0]), 0)


# blocked scoring of tape-free tables ------------------------------------------

# S = 400 puts two items in each block of est.BLOCK samples, so 6 items span
# three blocks; every block has an even number of rows, as GEMM edge rows and
# 1-row GEMV products can round differently from the interior of a batch
BLOCKED_S = 400


def _binary_items(n, d_x, seed=0):
    return (np.random.default_rng(seed).random((n, d_x)) < 0.5).astype(np.float64)


@pytest.mark.parametrize("model,rtol", [
    (SigmoidBeliefNet(d_x=16, d_z=5), 0.0),
    (SigmoidBeliefNet(d_x=16, d_z=5, nonlinear=True), 1e-15),
    (GaussianVAE(d_x=16, d_z=3), 1e-15),
], ids=["linear-sbn", "nonlinear-sbn", "vae"])
def test_blocked_table_matches_one_block_reference(model, rtol):
    params = model.init_params(3)
    x = _binary_items(6, 16)
    assert est.BLOCK // BLOCKED_S < x.shape[0]
    got = est.build_weight_table(model, params, x, BLOCKED_S, np.array([0.0, 0.4, 1.0]), 9)
    # the whole batch scored at once is the reference
    want = ad.value_of(est._instantaneous_bound(model, params.as_dict(), x, got.zs)[0])
    if rtol == 0.0:
        np.testing.assert_array_equal(got.log_w, want)
    else:
        np.testing.assert_allclose(got.log_w, want, rtol=rtol, atol=0.0)


def _sbn_draw(model, rng, B, S):
    # layer-major: one draw per layer, in order, seen as (B, S, layers, d_z)
    return np.moveaxis(rng.random((model.layers, B, S, model.d_z)), 0, 2)


# each model with its whole batch's draw in stream order, made here from the
# generator's own calls
_NOISE_MODELS = {
    "toy": (lambda: ToyBernoulli(m=2, d_x=1), lambda m, rng, B, S: rng.random((B, S))),
    "conjugate": (ConjugateGaussian, lambda m, rng, B, S: rng.standard_normal((B, S))),
    "vae": (lambda: GaussianVAE(d_x=16, d_z=3),
            lambda m, rng, B, S: rng.standard_normal((B, S, m.d_z))),
    "sbn1": (lambda: SigmoidBeliefNet(d_x=16, d_z=5, layers=1), _sbn_draw),
    "sbn2": (lambda: SigmoidBeliefNet(d_x=16, d_z=5, layers=2), _sbn_draw),
    "sbn3": (lambda: SigmoidBeliefNet(d_x=16, d_z=5, layers=3), _sbn_draw),
}


@pytest.mark.parametrize("name", list(_NOISE_MODELS))
@pytest.mark.parametrize("B,S", [(7, BLOCKED_S), (3, est.BLOCK + 76)],
                         ids=["ragged-last-block", "one-item-blocks"])
def test_block_noise_equals_the_batch_draw(name, B, S):
    # each block is drawn only when it is reached, yet equals its slice of
    # the whole-batch draw; one block of B items, as a taped table draws it,
    # is the whole draw
    make, draw = _NOISE_MODELS[name]
    model = make()
    whole = draw(model, rng_stream(9, est._STREAM_SAMPLES), B, S)
    blocked = max(1, est.BLOCK // S)
    assert B % blocked != 0 if S <= est.BLOCK else blocked == 1
    for step in (blocked, B):
        starts = []
        for items, block in model.noise_blocks(rng_stream(9, est._STREAM_SAMPLES), B, S, step):
            starts.append(items.start)
            np.testing.assert_array_equal(block, whole[items])
        assert starts == list(range(0, B, step))


@pytest.mark.parametrize("layers", [1, 3])
def test_sbn_one_block_noise_equals_the_multi_block_draws(layers):
    # one block takes every layer's uniforms from rng itself, one after
    # another; several blocks take them from one generator per layer, moved
    # to that layer's offset in the stream
    model = SigmoidBeliefNet(d_x=16, d_z=5, layers=layers)
    B, S = 5, 3
    (items, whole), = model.noise_blocks(rng_stream(9, est._STREAM_SAMPLES), B, S, B)
    assert items == slice(0, B) and whole.shape == (B, S, layers, 5)
    for step in (1, 2):
        blocks = list(model.noise_blocks(rng_stream(9, est._STREAM_SAMPLES), B, S, step))
        assert len(blocks) == -(-B // step)
        np.testing.assert_array_equal(np.concatenate([block for _, block in blocks]), whole)


def test_multi_block_table_matches_the_one_block_draw(monkeypatch):
    # each block's noise is drawn fresh when the block is reached, yet in the
    # whole batch's stream order, so thresholding it per item block gives the
    # one-block table's zs and log_w bit for bit
    model = SigmoidBeliefNet(d_x=16, d_z=5)
    params = model.init_params(3)
    x = _binary_items(6, 16)
    blocked = est.build_weight_table(model, params, x, BLOCKED_S, [0.0, 1.0], 9)
    monkeypatch.setattr(est, "BLOCK", BLOCKED_S * x.shape[0])
    whole = est.build_weight_table(model, params, x, BLOCKED_S, [0.0, 1.0], 9)
    np.testing.assert_array_equal(blocked.zs, whole.zs)
    np.testing.assert_array_equal(blocked.log_w, whole.log_w)


@pytest.mark.parametrize("B,S", [(7, BLOCKED_S), (3, est.BLOCK + 76)],
                         ids=["ragged-last-block", "one-item-blocks"])
def test_score_blocks_scores_a_lifted_view_as_one_block(B, S):
    # a plain view is scored in blocks of max(1, min(BLOCK, TILE // d_z) // S)
    # items; a lifted view in one block of all B items, however many samples
    model = SigmoidBeliefNet(d_x=16, d_z=5)
    params = model.init_params(3)
    x = _binary_items(B, 16)
    plain = [items for items, *_ in est.score_blocks(model, params.as_dict(), x, S, 9)]
    assert len(plain) == -(-B // max(1, min(est.BLOCK, ad.TILE // model.d_z) // S))
    lifted = [items for items, *_ in est.score_blocks(model, params.lift(ad.Tape()), x, S, 9)]
    assert lifted == [slice(0, B)]


@pytest.mark.parametrize("model,S,items", [
    (SigmoidBeliefNet(d_x=16, d_z=12), 500, 2),
    (GaussianVAE(d_x=16, d_z=20), 200, 5),
    (SigmoidBeliefNet(d_x=16, d_z=200, nonlinear=True), 100, 3),
], ids=["desk-width", "vae-width", "full-width"])
def test_plain_blocks_hold_at_most_one_tile_of_hidden_activation(monkeypatch, model, S, items):
    # a plain block holds min(BLOCK, TILE // d_z) samples: the desk and vae
    # evaluation blocks keep BLOCK samples, a full-width block gets 3 items
    # at S = 100, and no activation of its layers exceeds one TILE
    assert items == max(1, min(est.BLOCK, ad.TILE // model.d_z) // S)
    sizes = []
    affine, tanh = ad.affine, ad.tanh
    monkeypatch.setattr(ad, "affine", lambda *a: sizes.append(ad.value_of(affine(*a)).size)
                        or affine(*a))
    monkeypatch.setattr(ad, "tanh", lambda v: sizes.append(ad.value_of(v).size) or tanh(v))
    blocks = [it for it, *_ in est.score_blocks(model, model.init_params(3).as_dict(),
                                                 _binary_items(7, 16), S, 9)]
    assert [it.stop - it.start for it in blocks] == [items] * (7 // items) + [7 % items] * (7 % items > 0)
    assert max(sizes) <= ad.TILE
    if model.d_z == 200:
        assert max(sizes) == items * S * model.d_z


def test_a_one_block_taped_table_holds_the_scored_arrays(monkeypatch):
    # the table of a training step is its scored block itself: log_w is the
    # taped U' value and zs the sampled z, with no copy
    model = GaussianVAE(d_x=16, d_z=3)
    params = model.init_params(3)
    x = _binary_items(6, 16)
    scored = []
    score_blocks = est.score_blocks
    monkeypatch.setattr(est, "score_blocks",
                        lambda *args: (scored.append(block) or block for block in score_blocks(*args)))
    table, u, _, _ = est._scored_table(model, params, params.lift(ad.Tape()), x, BLOCKED_S,
                                       [0.0, 1.0], 9)
    (_, z, u_block, _, _), = scored
    assert u is u_block
    assert np.shares_memory(table.log_w, ad.value_of(u))
    assert np.shares_memory(table.zs, z)
    assert x.shape[0] * BLOCKED_S > est.BLOCK


# the streamed consumers against whole-table computations, bit for bit: a
# nonlinear SBN and a VAE over ragged multi-block batches, and the zero-weight
# toy, whose rows with x = 1 hold samples of log w = -inf
def _streamed_case(name):
    if name == "zero-weight-toy":
        model, params = _zero_weight_toy()
        return model, params, np.array([[1.0], [0.0], [1.0], [1.0], [0.0]]), np.linspace(0.2, 1.0, 5)
    model = {"nonlinear-sbn": SigmoidBeliefNet(d_x=16, d_z=5, nonlinear=True),
             "vae": GaussianVAE(d_x=16, d_z=3)}[name]
    return model, model.init_params(4), _binary_items(5, 16, seed=3), np.linspace(0.0, 1.0, 51)


STREAMED = ["nonlinear-sbn", "vae", "zero-weight-toy"]


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_evaluate_matches_the_whole_table(name):
    from tvo.objectives import elbo_estimate, iwae_estimate
    from tvo.trainer import evaluate

    model, params, x, _ = _streamed_case(name)
    table = est.build_weight_table(model, params, x, BLOCKED_S, np.array([0.0, 1.0]), 21)
    want = (float(np.mean(iwae_estimate(table.log_w))), float(np.mean(elbo_estimate(table))))
    assert evaluate(model, params, x, BLOCKED_S, 21) == want


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_curve_matches_the_whole_table(name):
    model, params, x, grid = _streamed_case(name)
    table = est.build_weight_table(model, params, x, BLOCKED_S, grid, 21)
    values = np.ascontiguousarray(table.g.T).mean(axis=1)
    var_hat = np.sum(table.norm_w ** 2 * table.deviations(table.log_w, table.g) ** 2, axis=2)
    curve = integrand_curve(model, params, x, grid, BLOCKED_S, 21)
    np.testing.assert_array_equal(curve.values, values)
    np.testing.assert_array_equal(curve.std_errors, np.sqrt(var_hat.sum(axis=0)) / x.shape[0])
    assert np.all(np.isfinite(curve.std_errors))


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_tvo_eval_matches_the_whole_table(monkeypatch, capsys, name):
    from tvo import cli
    from tvo.objectives import (elbo_estimate, eubo_estimate, iwae_estimate, tvo_lower,
                                tvo_upper)

    model, params, x, _ = _streamed_case(name)
    resolve = cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda args: (*resolve(args)[:2], model, params))
    scored = []
    score_blocks = est.score_blocks
    monkeypatch.setattr(est, "score_blocks", lambda *args: scored.append(args) or score_blocks(*args))
    dataset = ["--dataset", "synthetic-toy", "--d-x", "1", "--m-latent", "2"] \
        if name == "zero-weight-toy" else ["--model", "sbn", "--dataset", "synthetic-sbn", "--d-x", "16"]
    assert cli.main(["eval", *dataset, "--eval-items", "5", "--eval-samples", str(BLOCKED_S),
                     "--K", "3", "--seed", "4"]) == 0
    printed = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
    (_, _, items, S, seed), = scored
    assert items.shape[0] * S > est.BLOCK
    schedule = make_schedule(3, 0.3, "log")
    table = est.build_weight_table(model, params, items, S, schedule, seed)
    want = {"elbo": elbo_estimate(table), "eubo": eubo_estimate(table),
            "iwae": iwae_estimate(table.log_w), "tvo_lower": tvo_lower(table, schedule),
            "tvo_upper": tvo_upper(table, schedule)}
    assert {k: float(v) for k, v in printed.items()} == {k: float(np.mean(v)) for k, v in want.items()}


def test_a_non_finite_curve_is_a_numerical_failure(monkeypatch, capsys, tmp_path):
    # at beta = 0 the zero-weight toy's g is -inf for the rows with x = 1:
    # a numerical failure (exit 1), raised before any invalid-value warning
    import warnings

    from tvo import cli

    model, params, x, _ = _streamed_case("zero-weight-toy")
    resolve = cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda args: (*resolve(args)[:2], model, params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite integrand"):
            integrand_curve(model, params, x, np.linspace(0.0, 1.0, 5), BLOCKED_S, 21)
        assert cli.main(["export-curve", "--dataset", "synthetic-toy", "--d-x", "1",
                         "--m-latent", "2", "--eval-items", "5", "--eval-samples", "50",
                         "--out", str(tmp_path / "curve.csv")]) == 1
    assert "non-finite integrand" in capsys.readouterr().err


def test_an_empty_batch_is_a_shape_error():
    # every consumer of score_blocks, taped or not, refuses a batch of 0 items
    from tvo.objectives import ObjectiveSpec, training_step
    from tvo.trainer import evaluate

    model = SigmoidBeliefNet(d_x=16, d_z=5)
    params = model.init_params(4)
    x = np.empty((0, 16))
    calls = [lambda: est.build_weight_table(model, params, x, 4, [0.0, 1.0], 21),
             lambda: evaluate(model, params, x, 4, 21),
             lambda: integrand_curve(model, params, x, np.linspace(0.0, 1.0, 5), 4, 21),
             lambda: training_step(ObjectiveSpec("elbo", S=4), model, params, x, 21)]
    for call in calls:
        with pytest.raises(ShapeError, match="at least one item"):
            call()


def test_streamed_consumers_raise_on_a_degenerate_block(capsys, monkeypatch):
    # a batch whose last block has a row of zero weights raises like the
    # whole table, and tvo eval reports it as a failed check
    from tvo import cli
    from tvo.trainer import evaluate

    class NoSupportForOnes(SigmoidBeliefNet):
        def log_joint(self, view, x, z):
            lj = np.asarray(super().log_joint(view, x, z))
            return np.where(x[:, :1] == 1.0, -np.inf, lj)

    model = NoSupportForOnes(d_x=16, d_z=5)
    params = model.init_params(4)
    x = _binary_items(5, 16, seed=3)
    x[:, 0] = 0.0
    x[4, 0] = 1.0
    with pytest.raises(DegenerateWeightsError):
        est.build_weight_table(model, params, x, BLOCKED_S, [0.0, 1.0], 21)
    with pytest.raises(DegenerateWeightsError):
        evaluate(model, params, x, BLOCKED_S, 21)
    with pytest.raises(DegenerateWeightsError):
        integrand_curve(model, params, x, np.linspace(0.0, 1.0, 5), BLOCKED_S, 21)
    resolve = cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda args: (*resolve(args)[:2], model, params))
    assert cli.main(["eval", "--model", "sbn", "--dataset", "synthetic-sbn", "--d-x", "16",
                     "--eval-samples", str(BLOCKED_S)]) == 1
    assert "all importance weights are zero" in capsys.readouterr().err


def test_streamed_evaluate_holds_one_block_of_latents():
    # a desk SBN evaluate at S = 500 peaks under 5 MB, and 200 more items
    # (1e5 samples) raise the peak by at most 16 bytes a sample: evaluate
    # keeps per-item estimates, never the batch's latents or log w
    import tracemalloc

    from tvo.trainer import evaluate

    model = SigmoidBeliefNet(d_x=64, d_z=12)
    params = model.init_params(1)
    x = _binary_items(400, 64)
    evaluate(model, params, x[:2], 500, 0)
    peaks = {}
    for n in (200, 400):
        tracemalloc.start()
        try:
            evaluate(model, params, x[:n], 500, 0)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] < 5e6
    assert peaks[400] - peaks[200] <= 16 * 200 * 500


def _phi_rows(monkeypatch, run):
    """Rows each phi/ weight matrix multiplies while `run()` executes."""
    from tvo.autodiff import ParamVector

    views, layers = [], []
    lift, as_dict, affine = ParamVector.lift, ParamVector.as_dict, ad.affine

    def kept(view):
        views.append(view)
        return view

    def recorded(x, w, b):
        layers.append((w, ad.value_of(x).shape[0]))
        return affine(x, w, b)

    monkeypatch.setattr(ParamVector, "lift", lambda self, tape: kept(lift(self, tape)))
    monkeypatch.setattr(ParamVector, "as_dict", lambda self: kept(as_dict(self)))
    monkeypatch.setattr(ad, "affine", recorded)
    run()
    rows = {}
    for view in views:
        for name, value in view.items():
            if name.startswith("phi/") and name.endswith(".w"):
                rows[name] = rows.get(name, 0) + sum(n for w, n in layers if w is value)
    return rows


def test_inference_network_runs_once_per_table(monkeypatch):
    # every item passes the encoder's x layer once and every sample the upper
    # layers once: z and log q come from the same pass, taped or in blocks
    from tvo import objectives as obj
    from tvo.path import make_schedule

    sbn = SigmoidBeliefNet(d_x=16, d_z=5, layers=2)
    x = _binary_items(6, 16)
    spec = obj.ObjectiveSpec("tvo_lower", make_schedule(2, 0.3, "log"), S=5)
    rows = _phi_rows(monkeypatch, lambda: obj.training_step(spec, sbn, sbn.init_params(3), x, 11))
    assert rows == {"phi/enc1.w": 6, "phi/enc2.w": 6 * 5}
    monkeypatch.undo()
    rows = _phi_rows(monkeypatch, lambda: est.build_weight_table(
        sbn, sbn.init_params(3), x, BLOCKED_S, [0.0, 1.0], 9))
    assert rows == {"phi/enc1.w": 6, "phi/enc2.w": 6 * BLOCKED_S}
    monkeypatch.undo()
    vae = GaussianVAE(d_x=16, d_z=3)
    spec = obj.ObjectiveSpec("iwae", make_schedule(2, 0.3, "log"), S=5)
    rows = _phi_rows(monkeypatch, lambda: obj.training_step(spec, vae, vae.init_params(3), x, 11))
    assert rows == {"phi/enc1.w": 6, "phi/enc2.w": 6, "phi/mean.w": 6, "phi/logstd.w": 6}


def test_blocked_evaluate_matches_table_estimates(monkeypatch):
    # evaluate tempers each block on the single knot beta = 0 (its uniform
    # column is never exponentiated), yet returns exactly the estimates of a
    # [0, 1] table
    from tvo.objectives import elbo_estimate, iwae_estimate
    from tvo.trainer import evaluate

    knots = []
    tempered_columns = est.tempered_columns

    def recorded(log_w, betas):
        knots.append(list(betas))
        return tempered_columns(log_w, betas)

    x = _binary_items(6, 16, seed=1)
    for model in (SigmoidBeliefNet(d_x=16, d_z=5, nonlinear=True), GaussianVAE(d_x=16, d_z=3)):
        params = model.init_params(4)
        table = est.build_weight_table(model, params, x, BLOCKED_S, np.array([0.0, 1.0]), 21)
        knots.clear()
        monkeypatch.setattr(est, "tempered_columns", recorded)
        iwae, elbo = evaluate(model, params, x, BLOCKED_S, 21)
        monkeypatch.undo()
        assert knots and all(grid == [0.0] for grid in knots)
        assert iwae == float(np.mean(iwae_estimate(table.log_w)))
        assert elbo == float(np.mean(elbo_estimate(table)))


def test_curve_reads_no_iwae(monkeypatch):
    # the curve reduces each block to g and its variance; it takes no log mean weight
    def refuse(log_w):
        raise AssertionError("integrand_curve computed an IWAE estimate")

    model = SigmoidBeliefNet(d_x=16, d_z=5)
    x = _binary_items(6, 16, seed=2)
    monkeypatch.setattr(est, "iwae_estimate", refuse)
    curve = integrand_curve(model, model.init_params(5), x, np.linspace(0.0, 1.0, 5), BLOCKED_S, 8)
    assert np.all(np.isfinite(curve.values))


def test_blocked_curve_starts_at_the_evaluate_elbo():
    from tvo.path import integrand_curve
    from tvo.trainer import evaluate

    model = GaussianVAE(d_x=16, d_z=3)
    params = model.init_params(5)
    x = _binary_items(6, 16, seed=2)
    _, elbo = evaluate(model, params, x, BLOCKED_S, 8)
    curve = integrand_curve(model, params, x, np.linspace(0.0, 1.0, 5), BLOCKED_S, 8)
    assert curve.values[0] == elbo


def test_column_sums_and_nonnegativity():
    model, params, x = toy_setup(seed=9, m=3, d_x=2)
    table = est.build_weight_table(model, params, np.ones(2), 64, np.linspace(0, 1, 6), 2)
    sums = table.norm_w.sum(axis=2)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    assert np.all(table.norm_w >= 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=12), st.floats(-40, 40))
def test_weight_columns_scale_invariant(log_w, shift):
    betas = np.array([0.0, 0.25, 0.7, 1.0])
    base = est.tempered_columns(np.array([log_w]), betas)
    shifted = est.tempered_columns(np.array([log_w]) + shift, betas)
    np.testing.assert_allclose(base, shifted, atol=1e-12)


# expectations ----------------------------------------------------------------


def test_expectation_of_constant_is_constant():
    model, params, x = toy_setup()
    table = est.build_weight_table(model, params, x, 16, np.array([0.0, 0.4, 1.0]), 3)
    for k in range(3):
        assert est.expectation(table, k, np.full((1, 16), 2.5)) == pytest.approx(2.5, abs=1e-12)


def test_expectation_beta_zero_is_arithmetic_mean():
    model, params, x = toy_setup()
    table = est.build_weight_table(model, params, x, 10, np.array([0.0, 1.0]), 4)
    f = np.arange(10.0)
    assert est.expectation(table, 0, f[None, :]) == pytest.approx(f.mean(), rel=1e-14)


def test_expectation_length_mismatch_raises():
    model, params, x = toy_setup()
    table = est.build_weight_table(model, params, x, 8, np.array([0.0, 1.0]), 4)
    with pytest.raises(ShapeError):
        est.expectation(table, 0, np.zeros(9))


def test_expectation_converges_to_enumeration():
    model, params, x = toy_setup(seed=8, m=3, d_x=1)
    enum = oracles.enumerate_states(model, params, x)
    rng = np.random.default_rng(0)
    f_states = rng.normal(size=model.n_z)
    table = est.build_weight_table(model, params, x, 10_000, np.array([0.0, 0.6, 1.0]), 6)
    f_samples = f_states[np.asarray(table.zs)[0]]
    estimate = est.expectation(table, 1, f_samples[None, :])
    exact = enum.expectation(0.6, f_states)
    wbar = table.column(1)[0]
    se = np.sqrt(np.sum(wbar ** 2 * (f_samples - estimate) ** 2))
    assert abs(estimate - exact) <= 3 * se


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=2, max_size=10),
       st.lists(st.floats(-100, 100), min_size=2, max_size=10),
       st.floats(0.0, 1.0))
def test_expectation_is_convex_combination(log_w, f, beta):
    n = min(len(log_w), len(f))
    log_w, f = np.array(log_w[:n]), np.array(f[:n])
    cols = est.tempered_columns(log_w[None, :], np.array([beta]))
    value = float(cols[0, 0] @ f)
    assert f.min() - 1e-9 <= value <= f.max() + 1e-9


# covariance gradient ---------------------------------------------------------


def test_covariance_gradient_constant_f_is_zero():
    model, params, x = toy_setup()
    table = est.build_weight_table(model, params, x, 12, np.array([0.0, 0.5, 1.0]), 7)

    def f_const(view, xs, zs):
        # constant in z and lambda, traced through a parameter so the tape
        # still sees a differentiable expression
        return ad.add(ad.tsum(ad.mul(view["theta/prior"], 0.0)), np.full((1, 12), 2.0))

    for k in range(3):
        grad = est.covariance_gradient(model, params, f_const, table, k)
        np.testing.assert_allclose(grad.vector, 0.0, atol=1e-12)


def test_covariance_gradient_exact_enumeration_matches_finite_differences():
    model, params = random_toy(11, m=2, d_x=1)
    x = np.array([1.0])
    for beta in (0.1, 0.5, 0.9):
        grad = est.exact_enumeration_gradient(model, params, x, beta)
        fd = oracles.exact_expectation_gradient(model, params, x, beta)
        rel = np.max(np.abs(grad.vector - fd)) / max(1.0, np.max(np.abs(fd)))
        assert rel <= 1e-6


def test_covariance_gradient_mean_matches_analytic_elbo_gradient():
    # beta = 0 with f = U' is a score-function bound gradient with an average
    # baseline; 200 estimates x S = 500 uses 1e5 latent draws total, keeping
    # the small-sample bias of the self-normalized form below the noise floor
    model = ConjugateGaussian()
    params = model.init_params(4)
    x = 0.8
    exact = model.analytic_elbo_gradient(params, x)
    xb = np.array([[x]])

    def draw(i):
        table = est.build_weight_table(model, params, xb, 500, np.array([0.0, 1.0]), 900 + i)
        return est.covariance_gradient(model, params, None, table, 0).vector

    mean, se = mc_mean_se(draw, 200)
    assert np.all(np.abs(mean - exact) <= 3 * np.maximum(se, 1e-12))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradient_estimate_propagates_segment_name_on_nonfinite():
    model, params, x = toy_setup()
    table = est.build_weight_table(model, params, x, 6, np.array([0.0, 1.0]), 3)

    def f_bad(view, xs, zs):
        # scaling by inf drives the traced value (and its gradient) to inf
        blow_up = ad.mul(ad.tsum(view["theta/prior"]), np.inf)
        return ad.add(np.zeros((1, 6)), blow_up)

    with pytest.raises(Exception, match="segment"):
        est.covariance_gradient(model, params, f_bad, table, 1)


def test_a_non_finite_explicit_f_leaks_no_warning_from_estimators():
    # f is inf for every sample: its deviations from the inf mean read nan
    # without forming inf - inf, and the gradient fails naming a segment
    model, params, x = toy_setup()
    table = est.build_weight_table(model, params, x, 6, np.array([0.0, 1.0]), 3)

    def f_bad(view, xs, zs):
        return ad.add(np.zeros((1, 6)), ad.mul(ad.tsum(view["theta/prior"]), np.inf))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="segment"):
            est.covariance_gradient(model, params, f_bad, table, 1)
    assert [str(w.message) for w in caught if w.filename == est.__file__] == []


# reinforce family ------------------------------------------------------------


def test_reinforce_rejected_away_from_beta_zero():
    model, params, x = toy_setup()
    table = est.build_weight_table(model, params, x, 8, np.array([0.0, 0.5, 1.0]), 3)
    with pytest.raises(UnsupportedEstimatorError):
        est.reinforce_gradient(model, params, None, table, 1)


def test_reinforce_baseline_constant_f_returns_grad_f_exactly():
    model = ConjugateGaussian()
    params = model.init_params(4)
    xb = np.array([[0.3]])

    def f_const_in_z(view, xs, zs):
        return ad.add(ad.exp(view["theta/prior_mean"]), np.zeros(np.asarray(zs).shape))

    expected = np.zeros(params.size)
    expected[params.mask("theta/prior_mean")] = np.exp(float(params.get("theta/prior_mean")))
    for beta_index in (0, 1):
        table = est.build_weight_table(model, params, xb, 30, np.array([0.0, 1.0]), 21)
        grad = est.reinforce_baseline_gradient(model, params, f_const_in_z, table, beta_index)
        np.testing.assert_allclose(grad.vector, expected, atol=1e-10)

    def draw(i):
        table = est.build_weight_table(model, params, xb, 30, np.array([0.0, 1.0]), 5000 + i)
        return est.reinforce_baseline_gradient(model, params, f_const_in_z, table, 0).vector

    mean, se = mc_mean_se(draw, 64)
    assert np.all(np.abs(mean - expected) <= 3 * np.maximum(se, 1e-12))


def test_reinforce_mean_matches_analytic_elbo_gradient():
    model = ConjugateGaussian()
    params = model.init_params(4)
    x = 0.8
    exact = model.analytic_elbo_gradient(params, x)
    xb = np.repeat(np.array([[x]]), 250, axis=0)  # 250 draws per chunk

    def draw(i):
        table = est.build_weight_table(model, params, xb, 10, np.array([0.0, 1.0]), 3000 + i)
        return est.reinforce_gradient(model, params, None, table, 0).vector

    mean, se = mc_mean_se(draw, 400)  # 1e5 estimates in chunks of 250
    assert np.all(np.abs(mean - exact) <= 3 * np.maximum(se, 1e-12))


def test_reinforce_baseline_mean_matches_analytic_elbo_gradient():
    model = ConjugateGaussian()
    params = model.init_params(4)
    x = 0.8
    exact = model.analytic_elbo_gradient(params, x)
    xb = np.repeat(np.array([[x]]), 250, axis=0)

    def draw(i):
        table = est.build_weight_table(model, params, xb, 10, np.array([0.0, 1.0]), 4000 + i)
        return est.reinforce_baseline_gradient(model, params, None, table, 0).vector

    mean, se = mc_mean_se(draw, 400)
    assert np.all(np.abs(mean - exact) <= 3 * np.maximum(se, 1e-12))


def test_baseline_reduces_reinforce_variance_per_coordinate():
    model = ConjugateGaussian()
    params = model.init_params(4)
    xb = np.array([[0.8]])

    def draws(fn, n):
        return np.stack([fn(i) for i in range(n)])

    plain = draws(lambda i: est.reinforce_gradient(
        model, params, None,
        est.build_weight_table(model, params, xb, 10, np.array([0.0, 1.0]), 7000 + i), 0).vector, 10_000)
    based = draws(lambda i: est.reinforce_baseline_gradient(
        model, params, None,
        est.build_weight_table(model, params, xb, 10, np.array([0.0, 1.0]), 7000 + i), 0).vector, 10_000)
    var_plain = plain.var(axis=0, ddof=1)
    var_based = based.var(axis=0, ddof=1)
    assert np.all(var_plain >= var_based)


# reparameterization ----------------------------------------------------------


def test_reparam_location_shift_gradient_is_one():
    model = ConjugateGaussian()
    params = model.init_params(2)
    xb = np.array([[0.0]])
    # objective E_q[z] via a fixed-noise pathwise sample: d/d(bias) = 1
    tape = ad.Tape()
    view = params.lift(tape)
    eps = np.random.default_rng(0).normal(size=(1, 64))
    z, _ = model.reparam_sample(view, xb, eps)
    ad.backward(ad.tmean(z))
    grad = params.collect_grad(view)
    assert grad[params.mask("phi/q_bias")][0] == pytest.approx(1.0, abs=1e-12)


def test_reparam_matches_analytic_elbo_gradient():
    model = ConjugateGaussian()
    params = model.init_params(4)
    x = 0.8
    exact = model.analytic_elbo_gradient(params, x)
    xb = np.array([[x]])

    def draw(i):
        return est.reparam_gradient(model, params, xb, "elbo", 10, seed=6000 + i).vector

    mean, se = mc_mean_se(draw, 10_000)
    assert np.all(np.abs(mean - exact) <= 3 * np.maximum(se, 1e-12))


def test_reparam_matches_frozen_noise_finite_differences():
    model = GaussianVAE(d_x=6, d_z=3)
    params = model.init_params(9)
    x = (np.arange(6.0)[None, :] % 2)
    seed = 31
    grad = est.reparam_gradient(model, params, x, "elbo", S=4, seed=seed).vector

    _, eps = next(model.noise_blocks(rng_stream(seed, est._STREAM_SAMPLES), 1, 4, 1))

    def objective(vec):
        pv = params.with_vector(vec)
        view = pv.as_dict()
        z, _ = model.reparam_sample(view, x, eps)
        u = np.asarray(model.log_joint(view, x, z)) - np.asarray(model.log_q(view, x, z))
        return float(np.mean(u))

    fd = ad.finite_difference_gradient(objective, params.vector, h=1e-5)
    rel = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd)))
    assert rel <= 1e-5


@pytest.mark.parametrize("model", [GaussianVAE(d_x=6, d_z=3), ConjugateGaussian()],
                         ids=["vae", "conjugate"])
def test_reparam_draws_noise_without_sampling_q(monkeypatch, model):
    params = model.init_params(9)
    x = np.ones((2, 6)) if isinstance(model, GaussianVAE) else np.array([[0.4], [-0.2]])

    def no_sampling(*args, **kwargs):
        raise AssertionError("reparam_gradient ran the sampling forward pass")

    monkeypatch.setattr(model, "sample_q", no_sampling)
    assert est.reparam_gradient(model, params, x, "iwae", S=4, seed=31).vector.shape == (params.size,)


@pytest.mark.parametrize("model", [GaussianVAE(d_x=6, d_z=3), ConjugateGaussian()],
                         ids=["vae", "conjugate"])
def test_reparam_scores_the_weight_table_batch(monkeypatch, model):
    # the pathwise pass draws build_weight_table's batch: the same z and the
    # same U' bit for bit, so a training step needs no second batch
    params = model.init_params(9)
    x = np.ones((2, 6)) if isinstance(model, GaussianVAE) else np.array([[0.4], [-0.2]])
    table = est.build_weight_table(model, params, x, 4, np.array([0.0, 1.0]), 31)
    zs = []
    reparam_sample = model.reparam_sample

    def recorded(view, x, eps):
        z, lq = reparam_sample(view, x, eps)
        zs.append(ad.value_of(z))
        return z, lq

    monkeypatch.setattr(model, "reparam_sample", recorded)
    grad = est.reparam_gradient(model, params, x, "iwae", S=4, seed=31)
    assert len(zs) == 1
    np.testing.assert_array_equal(zs[0], table.zs)
    np.testing.assert_array_equal(grad.meta["log_w"], table.log_w)


@pytest.mark.filterwarnings("ignore::tvo.errors.DegenerateWeightsWarning")
@pytest.mark.parametrize("case", ["toy", "gaussian", "vae"])
def test_every_proposal_draw_goes_through_noise_blocks(monkeypatch, case):
    from tvo.models import LatentModel
    from tvo.objectives import OBJECTIVE_KINDS, ObjectiveSpec, training_step
    from tvo.trainer import evaluate

    if case == "toy":
        model, params = random_toy(23, m=2, d_x=2)
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
    elif case == "gaussian":
        model, params, x0 = random_conjugate_gaussian(5)
        x = np.array([[x0], [x0 + 0.5]])
    else:
        model = GaussianVAE(d_x=6, d_z=3)
        params, x = model.init_params(9), np.ones((2, 6))
    draw_noise, draws = model.draw_noise, []

    def guarded(rng, n, S):
        caller = sys._getframe(1).f_code
        assert caller is LatentModel.noise_blocks.__code__, f"draw_noise called from {caller.co_name}"
        draws.append(n)
        return draw_noise(rng, n, S)

    monkeypatch.setattr(model, "draw_noise", guarded)
    if hasattr(model, "reparam_sample"):
        for objective in ("elbo", "iwae"):
            est.reparam_gradient(model, params, x, objective, 4, 31)
    for kind in OBJECTIVE_KINDS:
        spec = ObjectiveSpec(kind, make_schedule(2, 0.3, "log"), S=4)
        for crn in ((True,) if kind == "iwae" else (True, False)):
            training_step(spec, model, params, x, 7, crn=crn)
    est.build_weight_table(model, params, x, 4, [0.0, 1.0], 8)
    evaluate(model, params, x, 4, 9)
    assert draws


def test_reparam_rejected_for_discrete_latents():
    model, params, x = toy_setup()
    with pytest.raises(UnsupportedEstimatorError):
        est.reparam_gradient(model, params, x[None, :], "elbo", 4, 0)


# diagnostics -----------------------------------------------------------------


def test_grad_std_diagnostic_zero_for_exact_estimator():
    model, params = random_toy(12, m=2, d_x=1)
    x = np.array([1.0])
    std = est.gradient_std_diagnostic(
        lambda seed: est.exact_enumeration_gradient(model, params, x, 0.5),
        repetitions=10, seed=0)
    assert std <= 1e-15  # no sampling noise, only rounding in the std itself


def test_grad_std_diagnostic_requires_two_repetitions():
    with pytest.raises(DomainError):
        est.gradient_std_diagnostic(lambda s: None, repetitions=1)


def test_grad_std_shrinks_like_root_s():
    model = ConjugateGaussian()
    params = model.init_params(4)
    xb = np.array([[0.8]])

    def diagnostic(S):
        def estimator(rep_seed):
            table = est.build_weight_table(model, params, xb, S, np.array([0.0, 1.0]), rep_seed)
            return est.covariance_gradient(model, params, None, table, 0)

        return est.gradient_std_diagnostic(estimator, repetitions=300, seed=123)

    ratio = diagnostic(10) / diagnostic(1000)
    assert 7.0 <= ratio <= 13.0  # expected sqrt(1000/10) = 10


def test_common_random_numbers_reduce_tvo_gradient_std():
    # the variance reduction needs real weight dispersion (wide-data models
    # keep it throughout training); a wide-logit table gives it at desk scale
    from tvo.objectives import ObjectiveSpec, training_step
    from tvo.path import make_schedule

    model, params = random_toy(13, m=4, d_x=6, scale=3.0)
    x = np.array([[1, 0, 1, 0, 1, 1], [0, 1, 0, 0, 1, 0.0]])
    spec = ObjectiveSpec("tvo_lower", make_schedule(2, 0.3, "log"), S=10, optimize="both")

    def diagnostic(crn, seed):
        def estimator(rep_seed):
            return training_step(spec, model, params, x, rep_seed, crn=crn)[1]

        return est.gradient_std_diagnostic(estimator, repetitions=10, seed=seed)

    wins = sum(diagnostic(True, s) < diagnostic(False, s) for s in range(10))
    assert wins >= 9


def test_gradient_estimates_are_seed_deterministic():
    model, params = random_toy(14, m=2, d_x=2)
    x = np.array([1.0, 0.0])

    def run():
        table = est.build_weight_table(model, params, x, 20, np.array([0.0, 0.5, 1.0]), 99)
        return est.covariance_gradient(model, params, None, table, 1).vector

    assert np.array_equal(run(), run())
