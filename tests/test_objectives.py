import numpy as np
import pytest

from conftest import mc_mean_se
from tvo import autodiff as ad
from tvo import objectives as obj
from tvo import oracles
from tvo.errors import ConfigError, DegenerateWeightsWarning, ShapeError
from tvo.estimators import build_weight_table, exact_weight_table
from tvo.models import (ConjugateGaussian, SigmoidBeliefNet, random_conjugate_gaussian,
                        random_toy)
from tvo.path import make_schedule


def exact_table_for(seed=3, m=3, d_x=2, schedule=None, posterior_q=False, x=None):
    model, params = random_toy(seed, m=m, d_x=d_x)
    if posterior_q:
        params = model.posterior_proposal(params)
    if x is None:
        x = np.ones(d_x)
    schedule = schedule or make_schedule(5)
    table = exact_weight_table(model, params, x, schedule.betas)
    return model, params, x, schedule, table


# elbo / eubo ------------------------------------------------------------------


def test_elbo_exact_posterior_matched_equals_log_evidence():
    model, params, x, sched, table = exact_table_for(posterior_q=True)
    enum = oracles.enumerate_states(model, params, x)
    assert obj.elbo_estimate(table) == pytest.approx(enum.log_evidence, abs=1e-10)


def test_elbo_single_sample_is_that_samples_bound():
    model, params = random_toy(4, m=2, d_x=1)
    x = np.array([1.0])
    table = build_weight_table(model, params, x, 1, np.array([0.0, 1.0]), 5)
    assert obj.elbo_estimate(table) == float(table.log_w[0, 0])


def test_elbo_sampled_matches_analytic_gaussian():
    model, params, x = random_conjugate_gaussian(7)
    table = build_weight_table(model, params, np.array([[x]]), 10_000, np.array([0.0, 1.0]), 3)
    estimate = obj.elbo_estimate(table)
    u = table.log_w[0]
    se = u.std(ddof=1) / np.sqrt(u.size)
    assert abs(estimate - model.analytic_elbo(params, x)) <= 3 * se


def test_eubo_exact_posterior_matched_equals_log_evidence():
    model, params, x, sched, table = exact_table_for(posterior_q=True, seed=9)
    enum = oracles.enumerate_states(model, params, x)
    assert obj.eubo_estimate(table) == pytest.approx(enum.log_evidence, abs=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_eubo_exact_upper_bounds_log_evidence(seed):
    model, params, x, sched, table = exact_table_for(seed=seed)
    enum = oracles.enumerate_states(model, params, x)
    assert obj.eubo_estimate(table) >= enum.log_evidence - 1e-12


def test_eubo_constant_weights_is_plain_mean():
    model, params = random_toy(10, m=2, d_x=1)
    params = model.posterior_proposal(params)
    x = np.array([0.0])
    # with q = posterior the weights are constant, so the posterior-end
    # average is the arithmetic mean of U'
    table = build_weight_table(model, params, x, 32, np.array([0.0, 1.0]), 6)
    assert obj.eubo_estimate(table) == pytest.approx(np.mean(table.log_w), rel=1e-12)


def test_eubo_warns_on_degenerate_effective_sample_size():
    model, params = random_toy(11, m=4, d_x=4, scale=6.0)
    x = np.ones(4)
    table = build_weight_table(model, params, x, 100, np.array([0.0, 1.0]), 7)
    with pytest.warns(DegenerateWeightsWarning):
        obj.eubo_estimate(table)


# tvo bounds -------------------------------------------------------------------


def test_k1_reductions_are_bit_identical():
    sched = make_schedule(1)
    model, params = random_toy(12, m=3, d_x=2)
    x = np.ones(2)
    sampled = build_weight_table(model, params, x, 50, sched.betas, 8)
    assert obj.tvo_lower(sampled, sched) == obj.elbo_estimate(sampled)
    assert obj.tvo_upper(sampled, sched) == obj.eubo_estimate(sampled)


@pytest.mark.parametrize("posterior_q", [True, False])
@pytest.mark.parametrize("K", [1, 2, 5, 20])
def test_exact_bound_sandwich(K, posterior_q):
    sched = make_schedule(K)
    model, params, x, _, table = exact_table_for(seed=13, schedule=sched,
                                                 posterior_q=posterior_q)
    enum = oracles.enumerate_states(model, params, x)
    lp = enum.log_evidence
    elbo = obj.elbo_estimate(table)
    eubo = obj.eubo_estimate(table)
    lower = obj.tvo_lower(table, sched)
    upper = obj.tvo_upper(table, sched)
    assert elbo <= lower + 1e-12
    assert lower <= lp + 1e-10
    assert lp <= upper + 1e-10
    assert upper <= eubo + 1e-12
    if posterior_q:
        assert lower == pytest.approx(lp, abs=1e-10)
        assert upper == pytest.approx(lp, abs=1e-10)


def test_exact_sandwich_strict_when_proposal_differs():
    sched = make_schedule(5)
    model, params, x, _, table = exact_table_for(seed=14, schedule=sched)
    enum = oracles.enumerate_states(model, params, x)
    tv = 0.5 * np.sum(np.abs(np.exp(enum.log_q) - enum.posterior))
    assert tv > 1e-6
    lp = enum.log_evidence
    assert obj.elbo_estimate(table) < obj.tvo_lower(table, sched) < lp
    assert lp < obj.tvo_upper(table, sched) < obj.eubo_estimate(table)


def test_refinement_tightens_exact_bounds():
    model, params = random_toy(15, m=3, d_x=2)
    x = np.ones(2)
    coarse = make_schedule(2)
    fine = make_schedule(10)  # refines: every coarse knot is a fine knot
    t_coarse = exact_weight_table(model, params, x, coarse.betas)
    t_fine = exact_weight_table(model, params, x, fine.betas)
    assert obj.tvo_lower(t_fine, fine) >= obj.tvo_lower(t_coarse, coarse) - 1e-12
    assert obj.tvo_upper(t_fine, fine) <= obj.tvo_upper(t_coarse, coarse) + 1e-12


def test_tvo_gap_zero_iff_posterior_matched():
    model, params = random_toy(16, m=2, d_x=2)
    sched = make_schedule(4)
    x = np.ones(2)
    enum = oracles.enumerate_states(model, params, x)
    tv = 0.5 * np.sum(np.abs(np.exp(enum.log_q) - enum.posterior))
    table = exact_weight_table(model, params, x, sched.betas)
    gap = enum.log_evidence - obj.tvo_lower(table, sched)
    assert tv > 1e-6 and gap > 0
    matched = model.posterior_proposal(params)
    table2 = exact_weight_table(model, matched, x, sched.betas)
    enum2 = oracles.enumerate_states(model, matched, x)
    assert enum2.log_evidence - obj.tvo_lower(table2, sched) == pytest.approx(0.0, abs=1e-10)


def test_knot_mismatch_rejected():
    model, params = random_toy(17, m=2, d_x=1)
    x = np.array([1.0])
    table = build_weight_table(model, params, x, 8, make_schedule(2).betas, 3)
    with pytest.raises(ShapeError):
        obj.tvo_lower(table, make_schedule(3))


def test_estimates_invariant_to_sample_permutation():
    model, params = random_toy(18, m=3, d_x=1)
    x = np.array([1.0])
    sched = make_schedule(3)
    table = build_weight_table(model, params, x, 64, sched.betas, 9)
    rng = np.random.default_rng(0)
    perm = rng.permutation(64)
    shuffled = type(table)(betas=table.betas, log_w=table.log_w[:, perm],
                           norm_w=table.norm_w[:, :, perm], zs=np.asarray(table.zs)[:, perm],
                           x=table.x, seed=table.seed, single=table.single)
    for fn in (obj.elbo_estimate, lambda t: obj.tvo_lower(t, sched),
               lambda t: obj.tvo_upper(t, sched), lambda t: obj.iwae_estimate(t.log_w)):
        assert fn(shuffled) == pytest.approx(fn(table), rel=1e-12, abs=1e-12)


# iwae -------------------------------------------------------------------------


def test_iwae_single_sample_is_log_weight():
    log_w = np.array([-3.7])
    assert obj.iwae_estimate(log_w) == pytest.approx(-3.7, abs=1e-12)


def test_iwae_constant_weights_give_log_constant():
    log_w = np.full(16, np.log(0.125))
    assert obj.iwae_estimate(log_w) == pytest.approx(np.log(0.125), abs=1e-12)


def test_iwae_exhaustive_uniform_proposal_recovers_evidence():
    # uniform proposal and one sample per latent state: log mean w = log p(x)
    model, params = random_toy(19, m=3, d_x=1)
    flat = params.replace(**{"phi/proposal": np.zeros((model.n_x, model.n_z))})
    x = np.array([1.0])
    enum = oracles.enumerate_states(model, flat, x)
    log_w_states = enum.log_joint - enum.log_q  # all states once
    assert obj.iwae_estimate(log_w_states) == pytest.approx(enum.log_evidence, abs=1e-10)


# training gradients ----------------------------------------------------------


def test_vi_mode_reduces_to_masked_covariance_gradient():
    from tvo.estimators import covariance_gradient

    model, params = random_toy(20, m=2, d_x=1)
    x = np.array([[1.0]])
    spec = obj.ObjectiveSpec("elbo", None, S=16, optimize="phi", data_source="real")
    seed = 77
    grad = obj.training_gradient(spec, model, params, x, seed)
    table = build_weight_table(model, params, x, 16, spec.schedule.betas, seed)
    direct = covariance_gradient(model, params, x, None, table, 0).vector
    masked = np.where(params.mask("phi/"), direct, 0.0)
    np.testing.assert_array_equal(grad.vector, masked)
    assert np.all(grad.vector[params.mask("theta/")] == 0.0)


def test_sleep_phase_gradient_matches_analytic_cross_entropy():
    # inference compilation: minimize E_{p(x,z)}[-log q(z|x)] over phi with
    # model-simulated observations; 200 estimates x S=500 = 1e5 draws total
    model = ConjugateGaussian()
    params = model.init_params(4)
    # the objective gradient itself; the trainer's direction flag minimizes it
    exact = model.analytic_sleep_gradient(params)
    spec = obj.ObjectiveSpec("eubo", None, S=500, optimize="phi",
                             data_source="model_simulated")
    x_shape = np.zeros((1, 1))

    def draw(i):
        return obj.training_gradient(spec, model, params, x_shape, seed=1000 + i).vector

    mean, se = mc_mean_se(draw, 200)
    phi = params.mask("phi/")
    assert np.all(np.abs(mean[phi] - exact[phi]) <= 3 * np.maximum(se[phi], 1e-12))
    assert np.all(mean[~phi] == 0.0)  # theta frozen in sleep mode


def test_tvo_training_gradient_exact_matches_finite_differences():
    from tvo.estimators import covariance_gradient

    model, params = random_toy(22, m=2, d_x=1)
    x = np.array([1.0])
    sched = make_schedule(2, 0.3, "log")
    table = exact_weight_table(model, params, x, sched.betas)
    grad = np.zeros(params.size)
    for k, width in enumerate(sched.widths):
        grad += width * covariance_gradient(model, params, x, None, table, k).vector
    fd = oracles.exact_objective_gradient(model, params, x, sched, "tvo_lower")
    rel = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd)))
    assert rel <= 1e-6


def test_objective_spec_validation():
    with pytest.raises(ConfigError):
        obj.ObjectiveSpec("nope")
    with pytest.raises(ConfigError):
        obj.ObjectiveSpec("elbo", optimize="gamma")
    with pytest.raises(ConfigError):
        obj.ObjectiveSpec("tvo_lower", schedule=None, S=0)
    spec = obj.ObjectiveSpec("tvo_upper", make_schedule(2))
    assert spec.direction == "minimize" and not spec.maximize
    assert obj.ObjectiveSpec("elbo").maximize


def test_training_step_returns_estimate_and_value():
    model, params = random_toy(23, m=2, d_x=2)
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    spec = obj.ObjectiveSpec("tvo_lower", make_schedule(2, 0.1, "log"), S=12)
    value, grad = obj.training_step(spec, model, params, x, seed=5)
    table = build_weight_table(model, params, x, 12, spec.schedule.betas, 5)
    assert value == pytest.approx(float(np.mean(obj.tvo_lower(table, spec.schedule))), rel=1e-12)
    assert grad.vector.shape == (params.size,)
    assert grad.K == 2 and grad.S == 12


def _single_pass_case(name):
    if name == "sbn":
        model = SigmoidBeliefNet(d_x=8, d_z=3, layers=2, nonlinear=True)
        x = (np.random.default_rng(2).random((3, 8)) < 0.5).astype(np.float64)
        return model, model.init_params(4), x
    if name == "toy":
        model, params = random_toy(23, m=2, d_x=2)
        return model, params, np.array([[1.0, 0.0], [0.0, 0.0]])
    model, params, x = random_conjugate_gaussian(5)
    return model, params, np.array([[x], [x + 0.5]])


@pytest.mark.parametrize("case,kind", [("sbn", "tvo_lower"), ("sbn", "iwae"),
                                       ("toy", "tvo_upper"), ("gaussian", "elbo")])
def test_crn_training_step_scores_only_on_the_tape(monkeypatch, case, kind):
    model, params, x = _single_pass_case(case)
    spec = obj.ObjectiveSpec(kind, make_schedule(3, 0.1, "log"), S=8)
    want = obj.objective_estimate(spec, build_weight_table(model, params, x, 8, spec.schedule.betas, 11))
    numeric = []
    for name in ("log_joint", "log_q"):
        def counted(view, x, z, _method=getattr(model, name), _name=name):
            if not any(isinstance(v, ad.Var) for v in view.values()):
                numeric.append(_name)
            return _method(view, x, z)
        monkeypatch.setattr(model, name, counted)
    value, _ = obj.training_step(spec, model, params, x, seed=11)
    assert numeric == []
    assert value == float(np.mean(np.asarray(want)))


@pytest.mark.parametrize("case", ["sbn", "toy"])
def test_no_crn_training_step_scores_each_batch_once(monkeypatch, case):
    # one value batch, then per Riemann term its own batch and the baseline
    # batch scored numerically; the term batch and the auxiliary batch of the
    # score correction are scored on tapes only
    model, params, x = _single_pass_case(case)
    spec = obj.ObjectiveSpec("tvo_lower", make_schedule(3, 0.1, "log"), S=8)
    n_terms = len(obj._riemann_terms(spec))
    calls = {"numeric": 0, "taped": 0}
    log_joint = model.log_joint

    def counted(view, x, z):
        calls["taped" if any(isinstance(v, ad.Var) for v in view.values()) else "numeric"] += 1
        return log_joint(view, x, z)

    monkeypatch.setattr(model, "log_joint", counted)
    obj.training_step(spec, model, params, x, seed=11, crn=False)
    assert calls == {"numeric": 1 + 2 * n_terms, "taped": 2 * n_terms}


@pytest.mark.parametrize("crn", [True, False])
def test_training_step_leaves_the_parameter_vector_unchanged(crn):
    model, params, x = _single_pass_case("sbn")
    before = params.vector.copy()
    spec = obj.ObjectiveSpec("tvo_lower", make_schedule(3, 0.1, "log"), S=8)
    obj.training_step(spec, model, params, x, seed=11, crn=crn)
    np.testing.assert_array_equal(params.vector, before)


@pytest.mark.parametrize("kind", ["tvo_lower", "tvo_upper"])
def test_crn_training_gradient_sums_the_term_gradients(kind):
    from tvo.estimators import covariance_gradient

    model, params, x = _single_pass_case("sbn")
    spec = obj.ObjectiveSpec(kind, make_schedule(3, 0.1, "log"), S=8)
    table = build_weight_table(model, params, x, 8, spec.schedule.betas, 11)
    want = sum(width * covariance_gradient(model, params, x, None, table, k).vector
               for k, width in obj._riemann_terms(spec))
    got = obj.training_gradient(spec, model, params, x, seed=11).vector
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)
