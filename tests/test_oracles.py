import numpy as np
import pytest

from tvo import oracles
from tvo.errors import DomainError
from tvo.models import ToyBernoulli, random_conjugate_gaussian, random_toy


def test_enumerate_uniform_model():
    model = ToyBernoulli(m=2, d_x=1)
    params = model.init_params(0)
    params = params.with_vector(np.zeros(params.size))
    enum = oracles.enumerate_states(model, params, np.array([0.0]))
    assert enum.log_evidence == pytest.approx(np.log(0.5), abs=1e-12)
    np.testing.assert_allclose(enum.posterior, 0.25, atol=1e-12)


def test_enumerate_posterior_matched_curve_constant():
    model, params = random_toy(40, m=3, d_x=1)
    matched = model.posterior_proposal(params)
    enum = oracles.enumerate_states(model, matched, np.array([1.0]))
    g = enum.g(np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(g, enum.log_evidence, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_enumerate_endpoints_match_definitional_sums(seed):
    model, params = random_toy(seed + 60, m=3, d_x=2)
    enum = oracles.enumerate_states(model, params, np.array([1.0, 0.0]))
    assert enum.g(np.array([0.0]))[0] == pytest.approx(enum.elbo(), abs=1e-12)
    assert enum.g(np.array([1.0]))[0] == pytest.approx(enum.eubo(), abs=1e-12)
    assert enum.posterior.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumeration_guard_rejects_large_state_space():
    with pytest.raises(DomainError):
        ToyBernoulli(m=13, d_x=1)


def test_ti_identity_posterior_matched_any_grid():
    model, params = random_toy(41, m=2, d_x=1)
    matched = model.posterior_proposal(params)
    enum = oracles.enumerate_states(model, matched, np.array([1.0]))
    for grid in (2, 5, 17):
        assert oracles.ti_identity_check(enum.g, enum.log_evidence, grid) < 1e-12


def test_ti_identity_random_instance_fine_grid():
    model, params = random_toy(42, m=4, d_x=2)
    enum = oracles.enumerate_states(model, params, np.array([1.0, 1.0]))
    assert oracles.ti_identity_check(enum.g, enum.log_evidence, 10_000) < 1e-6


def test_ti_identity_gaussian_fine_grid():
    model, params, x = random_conjugate_gaussian(43)
    residual = oracles.ti_identity_check(lambda b: model.analytic_g(params, x, b),
                                         model.analytic_log_evidence(params, x), 10_000)
    assert residual < 1e-6


def test_variance_identity_posterior_matched_is_zero():
    model, params = random_toy(44, m=3, d_x=1)
    matched = model.posterior_proposal(params)
    enum = oracles.enumerate_states(model, matched, np.array([0.0]))
    fd, var = oracles.variance_identity_check(enum.g, enum.var_u, 0.5)
    assert abs(fd) <= 1e-10 and abs(var) <= 1e-10


def test_variance_identity_random_toy():
    model, params = random_toy(45, m=3, d_x=2)
    enum = oracles.enumerate_states(model, params, np.array([0.0, 1.0]))
    fd, var = oracles.variance_identity_check(enum.g, enum.var_u, 0.5)
    assert abs(fd - var) / max(1.0, var) <= 1e-6


def test_variance_identity_gaussian_quarter():
    model, params, x = random_conjugate_gaussian(46)
    fd, var = oracles.variance_identity_check(
        lambda b: model.analytic_g(params, x, b),
        lambda b: model.analytic_var_u(params, x, b), 0.25)
    assert abs(fd - var) / max(1.0, var) <= 1e-6


def test_variance_identity_rejects_endpoint_beta():
    model, params = random_toy(47, m=2, d_x=1)
    enum = oracles.enumerate_states(model, params, np.array([0.0]))
    with pytest.raises(DomainError):
        oracles.variance_identity_check(enum.g, enum.var_u, 1e-7)


def test_gaussian_oracle_pair_cross_agreement():
    # closed forms against dense-grid quadrature on the same instances
    for seed in range(3):
        model, params, x = random_conjugate_gaussian(seed + 300)
        betas = np.array([0.0, 0.3, 0.7, 1.0])
        g_ref, var_ref, logp_ref = oracles.gaussian_grid_reference(model, params, x, betas)
        np.testing.assert_allclose(model.analytic_g(params, x, betas), g_ref, atol=1e-9)
        np.testing.assert_allclose(model.analytic_var_u(params, x, betas), var_ref, atol=1e-9)
        assert abs(model.analytic_log_evidence(params, x) - logp_ref) < 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_gaussian_bound_closed_forms_are_the_integrand_endpoints(seed):
    # ELBO = log p - KL(q || post) = g(0) and EUBO = log p + KL(post || q) = g(1),
    # from two independent closed forms
    model, params, x = random_conjugate_gaussian(seed)
    g0, g1 = model.analytic_g(params, x, [0.0, 1.0])
    assert abs(model.analytic_elbo(params, x) - g0) <= 1e-12 * abs(g0)
    assert abs(model.analytic_eubo(params, x) - g1) <= 1e-12 * abs(g1)


@pytest.mark.parametrize("seed", range(10))
def test_exact_integrand_nondecreasing_everywhere(seed):
    model, params = random_toy(seed + 400, m=3, d_x=2)
    x, _ = model.sample_joint(params, 1, np.random.default_rng(seed))
    enum = oracles.enumerate_states(model, params, x[0])
    g = enum.g(np.linspace(0, 1, 100))
    assert np.all(np.diff(g) >= -1e-12)


def test_gradient_lemma_by_enumeration():
    for seed in range(5):
        model, params = random_toy(seed + 500, m=2, d_x=2)
        x = np.array([1.0, 0.0])
        for beta in (0.1, 0.5, 0.9):
            assert oracles.gradient_lemma_gap(model, params, x, beta) < 1e-10


def test_exact_objective_gradient_matches_expectation_route():
    from tvo.path import make_schedule

    model, params = random_toy(48, m=2, d_x=1)
    x = np.array([1.0])
    sched = make_schedule(1)
    lower = oracles.exact_objective_gradient(model, params, x, sched, "tvo_lower")
    elbo_grad = oracles.exact_expectation_gradient(model, params, x, 0.0)
    np.testing.assert_allclose(lower, elbo_grad, atol=1e-7)
