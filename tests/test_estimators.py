import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mc_mean_se
from tvo import autodiff as ad
from tvo import estimators as est
from tvo import oracles
from tvo.errors import (DegenerateWeightsError, DomainError, ShapeError,
                        UnsupportedEstimatorError)
from tvo.models import (ConjugateGaussian, GaussianVAE, SigmoidBeliefNet,
                        ToyBernoulli, random_conjugate_gaussian, random_toy)

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


def test_blocked_table_draws_the_batch_once(monkeypatch):
    model = SigmoidBeliefNet(d_x=16, d_z=5)
    params = model.init_params(3)
    calls = []
    sample_q = model.sample_q

    def counted(*args, **kwargs):
        calls.append(1)
        return sample_q(*args, **kwargs)

    monkeypatch.setattr(model, "sample_q", counted)
    est.build_weight_table(model, params, _binary_items(6, 16), BLOCKED_S, [0.0, 1.0], 9)
    assert len(calls) == 1


def test_blocked_evaluate_matches_table_estimates():
    from tvo.objectives import elbo_estimate, iwae_estimate
    from tvo.trainer import evaluate

    model = SigmoidBeliefNet(d_x=16, d_z=5, nonlinear=True)
    params = model.init_params(4)
    x = _binary_items(6, 16, seed=1)
    table = est.build_weight_table(model, params, x, BLOCKED_S, np.array([0.0, 1.0]), 21)
    iwae, elbo = evaluate(model, params, x, BLOCKED_S, 21)
    assert iwae == float(np.mean(iwae_estimate(table.log_w)))
    assert elbo == float(np.mean(elbo_estimate(table)))


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
        assert est.expectation(table, k, np.full(16, 2.5)) == pytest.approx(2.5, abs=1e-12)


def test_expectation_beta_zero_is_arithmetic_mean():
    model, params, x = toy_setup()
    table = est.build_weight_table(model, params, x, 10, np.array([0.0, 1.0]), 4)
    f = np.arange(10.0)
    assert est.expectation(table, 0, f) == pytest.approx(f.mean(), rel=1e-14)


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
    estimate = est.expectation(table, 1, f_samples)
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
        grad = est.covariance_gradient(model, params, x, f_const, table, k)
        np.testing.assert_allclose(grad.vector, 0.0, atol=1e-12)


def test_covariance_gradient_exact_enumeration_matches_finite_differences():
    model, params = random_toy(11, m=2, d_x=1)
    x = np.array([1.0])
    for beta in (0.1, 0.5, 0.9):
        grad = est.exact_enumeration_gradient(model, params, x, beta)
        fd = oracles.exact_expectation_gradient(model, params, x, beta)
        rel = np.max(np.abs(grad.vector - fd)) / max(1.0, np.max(np.abs(fd)))
        assert rel <= 1e-6
        assert grad.estimator_kind == "exact_enumeration"


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
        return est.covariance_gradient(model, params, xb, None, table, 0).vector

    mean, se = mc_mean_se(draw, 200)
    assert np.all(np.abs(mean - exact) <= 3 * np.maximum(se, 1e-12))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradient_estimate_propagates_segment_name_on_nonfinite():
    model, params, x = toy_setup()
    table = est.build_weight_table(model, params, x, 6, np.array([0.0, 1.0]), 3)

    def f_bad(view, xs, zs):
        # division by zero drives the traced value (and its gradient) to inf
        blow_up = ad.div(ad.tsum(view["theta/prior"]), 0.0)
        return ad.add(np.zeros((1, 6)), blow_up)

    with pytest.raises(Exception, match="segment"):
        est.covariance_gradient(model, params, x, f_bad, table, 1)


# reinforce family ------------------------------------------------------------


def test_reinforce_rejected_away_from_beta_zero():
    model, params, x = toy_setup()
    table = est.build_weight_table(model, params, x, 8, np.array([0.0, 0.5, 1.0]), 3)
    with pytest.raises(UnsupportedEstimatorError):
        est.reinforce_gradient(model, params, x, None, table, 1)


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
        grad = est.reinforce_baseline_gradient(model, params, xb, f_const_in_z, table, beta_index)
        np.testing.assert_allclose(grad.vector, expected, atol=1e-10)

    def draw(i):
        table = est.build_weight_table(model, params, xb, 30, np.array([0.0, 1.0]), 5000 + i)
        return est.reinforce_baseline_gradient(model, params, xb, f_const_in_z, table, 0).vector

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
        return est.reinforce_gradient(model, params, xb, None, table, 0).vector

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
        return est.reinforce_baseline_gradient(model, params, xb, None, table, 0).vector

    mean, se = mc_mean_se(draw, 400)
    assert np.all(np.abs(mean - exact) <= 3 * np.maximum(se, 1e-12))


def test_baseline_reduces_reinforce_variance_per_coordinate():
    model = ConjugateGaussian()
    params = model.init_params(4)
    xb = np.array([[0.8]])

    def draws(fn, n):
        return np.stack([fn(i) for i in range(n)])

    plain = draws(lambda i: est.reinforce_gradient(
        model, params, xb, None,
        est.build_weight_table(model, params, xb, 10, np.array([0.0, 1.0]), 7000 + i), 0).vector, 10_000)
    based = draws(lambda i: est.reinforce_baseline_gradient(
        model, params, xb, None,
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
    z = model.reparam_sample(view, xb, eps)
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

    from tvo.util import rng_stream
    rng = rng_stream(seed, est._STREAM_REPARAM)
    eps = rng.normal(size=model.sample_q(params, x, 4, rng_stream(seed, est._STREAM_REPARAM + 1)).shape)

    def objective(vec):
        pv = params.with_vector(vec)
        view = pv.as_dict()
        z = model.reparam_sample(view, x, eps)
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
            return est.covariance_gradient(model, params, xb, None, table, 0)

        return est.gradient_std_diagnostic(estimator, repetitions=300, seed=123)

    ratio = diagnostic(10) / diagnostic(1000)
    assert 7.0 <= ratio <= 13.0  # expected sqrt(1000/10) = 10


def test_common_random_numbers_reduce_tvo_gradient_std():
    # the variance reduction needs real weight dispersion (wide-data models
    # keep it throughout training); a wide-logit table gives it at desk scale
    from tvo.objectives import ObjectiveSpec, training_gradient
    from tvo.path import make_schedule

    model, params = random_toy(13, m=4, d_x=6, scale=3.0)
    x = np.array([[1, 0, 1, 0, 1, 1], [0, 1, 0, 0, 1, 0.0]])
    spec = ObjectiveSpec("tvo_lower", make_schedule(2, 0.3, "log"), S=10, optimize="both")

    def diagnostic(crn, seed):
        def estimator(rep_seed):
            return training_gradient(spec, model, params, x, rep_seed, crn=crn)

        return est.gradient_std_diagnostic(estimator, repetitions=10, seed=seed)

    wins = sum(diagnostic(True, s) < diagnostic(False, s) for s in range(10))
    assert wins >= 9


def test_gradient_estimates_are_seed_deterministic():
    model, params = random_toy(14, m=2, d_x=2)
    x = np.array([1.0, 0.0])

    def run():
        table = est.build_weight_table(model, params, x, 20, np.array([0.0, 0.5, 1.0]), 99)
        return est.covariance_gradient(model, params, x, None, table, 1).vector

    assert np.array_equal(run(), run())
