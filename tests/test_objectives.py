import gc
from collections import Counter

import numpy as np
import pytest

from conftest import mc_mean_se
from tvo import autodiff as ad
from tvo import estimators as est
from tvo import objectives as obj
from tvo import oracles
from tvo.errors import ConfigError, DegenerateWeightsWarning, ShapeError
from tvo.estimators import build_weight_table, exact_weight_table
from tvo.models import (ConjugateGaussian, GaussianVAE, SigmoidBeliefNet,
                        random_conjugate_gaussian, random_toy)
from tvo.path import integrand_curve, make_schedule


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
                           x=table.x, seed=table.seed)
    for fn in (obj.elbo_estimate, lambda t: obj.tvo_lower(t, sched),
               lambda t: obj.tvo_upper(t, sched), lambda t: obj.iwae_estimate(t.log_w)):
        assert fn(shuffled) == pytest.approx(fn(table), rel=1e-12, abs=1e-12)


@pytest.mark.filterwarnings("ignore::tvo.errors.DegenerateWeightsWarning")
def test_every_estimate_of_one_item_is_one_value_per_item():
    # a 1-D x, or a 1-D log w, is one item: every estimate returns (1,)
    model, params = random_toy(18, m=3, d_x=1)
    x = np.array([1.0])
    sched = make_schedule(3)
    for table in (build_weight_table(model, params, x, 64, sched.betas, 9),
                  exact_weight_table(model, params, x, sched.betas)):
        S = table.n_samples
        estimates = [obj.elbo_estimate(table), obj.tvo_lower(table, sched),
                     obj.tvo_upper(table, sched), obj.iwae_estimate(table.log_w),
                     obj.iwae_estimate(table.log_w[0]), obj.eubo_estimate(table),
                     est.expectation(table, 2, np.ones((1, S)))]
        for kind in ("tvo_lower", "tvo_upper", "eubo", "iwae"):  # elbo needs the knots 0, 1
            spec = obj.ObjectiveSpec(kind, sched if kind.startswith("tvo") else None, S=S)
            estimates.append(obj.objective_estimate(spec, table))
        assert all(np.shape(e) == (1,) for e in estimates)


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
    grad = obj.training_step(spec, model, params, x, seed)[1]
    table = build_weight_table(model, params, x, 16, spec.schedule.betas, seed)
    direct = covariance_gradient(model, params, None, table, 0).vector
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
        return obj.training_step(spec, model, params, x_shape, seed=1000 + i)[1].vector

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
        grad += width * covariance_gradient(model, params, None, table, k).vector
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
    assert not spec.maximize
    assert obj.ObjectiveSpec("elbo").maximize


def test_training_step_returns_estimate_and_value():
    model, params = random_toy(23, m=2, d_x=2)
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    spec = obj.ObjectiveSpec("tvo_lower", make_schedule(2, 0.1, "log"), S=12)
    value, grad = obj.training_step(spec, model, params, x, seed=5)
    table = build_weight_table(model, params, x, 12, spec.schedule.betas, 5)
    assert value == pytest.approx(float(np.mean(obj.tvo_lower(table, spec.schedule))), rel=1e-12)
    assert grad.vector.shape == (params.size,)


def _single_pass_case(name):
    if name in ("sbn", "sbn3"):
        model = SigmoidBeliefNet(d_x=8, d_z=3, layers=3 if name == "sbn3" else 2, nonlinear=True)
        x = (np.random.default_rng(2).random((3, 8)) < 0.5).astype(np.float64)
        return model, model.init_params(4), x
    if name == "toy":
        model, params = random_toy(23, m=2, d_x=2)
        return model, params, np.array([[1.0, 0.0], [0.0, 0.0]])
    if name == "vae":
        model = GaussianVAE(d_x=8, d_z=3)
        x = (np.random.default_rng(2).random((3, 8)) < 0.5).astype(np.float64)
        return model, model.init_params(4), x
    model, params, x = random_conjugate_gaussian(5)
    return model, params, np.array([[x], [x + 0.5]])


@pytest.mark.parametrize("case,kind", [("sbn", "tvo_lower"), ("sbn", "iwae"),
                                       ("toy", "tvo_upper"), ("gaussian", "elbo"),
                                       ("gaussian", "iwae"), ("vae", "iwae")])
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


@pytest.mark.filterwarnings("ignore::tvo.errors.DegenerateWeightsWarning")
@pytest.mark.parametrize("crn", [True, False], ids=["crn", "no_crn"])
@pytest.mark.parametrize("case", ["toy", "sbn3", "vae"])
def test_endpoint_specs_are_the_k1_riemann_sums(monkeypatch, case, crn):
    # the ELBO and EUBO are the K = 1 lower and upper sums whatever schedule
    # they are given, and only their two knots are ever tempered
    model, params, x = _single_pass_case(case)
    knots = []
    tempered_columns = est.tempered_columns

    def counted(log_w, betas):
        knots.append(betas.size)
        return tempered_columns(log_w, betas)

    monkeypatch.setattr(est, "tempered_columns", counted)
    for endpoint, bound in (("elbo", "tvo_lower"), ("eubo", "tvo_upper")):
        want = obj.training_step(obj.ObjectiveSpec(bound, make_schedule(1), S=8),
                                 model, params, x, seed=11, crn=crn)
        for schedule in (None, make_schedule(1), make_schedule(4, 0.1, "log")):
            value, grad = obj.training_step(obj.ObjectiveSpec(endpoint, schedule, S=8),
                                            model, params, x, seed=11, crn=crn)
            assert value == want[0]
            np.testing.assert_array_equal(grad.vector, want[1].vector)
    assert knots and set(knots) == {2}


@pytest.mark.parametrize("case", ["sbn", "toy"])
def test_no_crn_training_step_scores_each_batch_once(monkeypatch, case):
    # one value batch, then per Riemann term the baseline batch scored
    # numerically; the term batch and the auxiliary batch of the score
    # correction are scored on tapes only, each once
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
    assert calls == {"numeric": 1 + n_terms, "taped": 2 * n_terms}


@pytest.mark.parametrize("kind", ["tvo_lower", "tvo_upper"])
def test_k50_step_and_curve_contract_no_knot_alone(monkeypatch, kind):
    # the value, the surrogate's baselines and the curve read the table's
    # (B, K+1) integrand and its (B, K+1, S) columns whole, never knot by knot
    model, params, x = _single_pass_case("sbn")
    calls = Counter()
    for name in ("column",):
        def counted(self, *args, _method=getattr(est.WeightTable, name), _name=name, **kw):
            calls[_name] += 1
            return _method(self, *args, **kw)
        monkeypatch.setattr(est.WeightTable, name, counted)
    spec = obj.ObjectiveSpec(kind, make_schedule(50, 0.01, "log"), S=8)
    obj.training_step(spec, model, params, x, seed=11)
    integrand_curve(model, params, x, np.linspace(0.0, 1.0, 51), 8, 3)
    assert calls == Counter()


def _two_knot_table(model, params, x):
    return build_weight_table(model, params, x, 8, np.array([0.0, 1.0]), 11)


@pytest.mark.parametrize("run,calls", [
    (lambda m, p, x: est.covariance_gradient(m, p, None, _two_knot_table(m, p, x), 1), 1),
    (lambda m, p, x: est.reinforce_gradient(m, p, None, _two_knot_table(m, p, x), 0), 1),
    (lambda m, p, x: est.reinforce_baseline_gradient(m, p, None, _two_knot_table(m, p, x), 1), 2),
    (lambda m, p, x: obj.training_step(
        obj.ObjectiveSpec("tvo_lower", make_schedule(3), S=8), m, p, x, seed=11), 1),
    (lambda m, p, x: obj.training_step(
        obj.ObjectiveSpec("tvo_upper", make_schedule(3), S=8), m, p, x, seed=11, crn=False), 6),
    (lambda m, p, x: obj.training_step(obj.ObjectiveSpec("iwae", S=8), m, p, x, seed=11), 1),
], ids=["covariance", "reinforce", "baselined", "crn-step", "no-crn-step-K3", "sbn-iwae"])
def test_every_score_function_gradient_uses_the_one_surrogate_builder(monkeypatch, run, calls):
    # one builder call per tape: the baselined estimator has a main and a
    # correction tape, and a no-CRN step one baselined estimate per knot
    model, params, x = _single_pass_case("sbn")
    count = Counter()
    build = est._score_surrogate

    def counted(pairs):
        count["build"] += 1
        return build(pairs)

    for module in (est, obj):
        monkeypatch.setattr(module, "_score_surrogate", counted)
    run(model, params, x)
    assert count["build"] == calls


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
    want = sum(width * covariance_gradient(model, params, None, table, k).vector
               for k, width in obj._riemann_terms(spec))
    got = obj.training_step(spec, model, params, x, seed=11)[1].vector
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("case", ["vae", "gaussian"])
def test_lifted_sample_q_returns_a_plain_z(case):
    # z stays data on the tape: only log q carries the parameters
    model, params, x = _single_pass_case(case)
    view = params.lift(ad.Tape())
    B = x.shape[0]
    _, noise = next(model.noise_blocks(np.random.default_rng(0), B, 4, B))
    z, lq = model.sample_q(view, x, noise)
    assert type(z) is np.ndarray
    assert isinstance(lq, ad.Var)


@pytest.mark.parametrize("case", ["vae", "gaussian"])
def test_crn_gradient_of_continuous_models_is_score_function(case):
    # a pathwise term leaking through z would break this identity
    from tvo.estimators import covariance_gradient

    model, params, x = _single_pass_case(case)
    spec = obj.ObjectiveSpec("tvo_lower", make_schedule(3, 0.1, "log"), S=8)
    table = build_weight_table(model, params, x, 8, spec.schedule.betas, 11)
    want = sum(width * covariance_gradient(model, params, None, table, k).vector
               for k, width in obj._riemann_terms(spec))
    got = obj.training_step(spec, model, params, x, seed=11)[1].vector
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("case,kind,affine", [("desk_sbn", "tvo_lower", 4), ("vae", "iwae", 7)])
def test_training_step_records_each_layer_as_one_affine_node(monkeypatch, case, kind, affine):
    # desk SBN: two decoder and two encoder layers; VAE: three decoder layers
    # and the four encoder layers, run once by reparam_sample
    if case == "desk_sbn":
        model = SigmoidBeliefNet(d_x=64, d_z=12, layers=2, nonlinear=False)
    else:
        model = GaussianVAE(d_x=8, d_z=3)
    x = (np.random.default_rng(2).random((4, model.d_x)) < 0.5).astype(np.float64)
    ops = Counter()
    backward = est.backward

    def counted(out):
        ops.update(node.op for node in out.tape.nodes)
        return backward(out)

    monkeypatch.setattr(est, "backward", counted)
    spec = obj.ObjectiveSpec(kind, make_schedule(2, 0.3, "log"), S=5)
    obj.training_step(spec, model, model.init_params(4), x, seed=11)
    assert ops["affine"] == affine
    assert ops["matmul"] == 0


@pytest.mark.parametrize("case,kind", [("toy", "tvo_lower"), ("gaussian", "tvo_upper"),
                                       ("linear_sbn", "tvo_lower"), ("sbn", "eubo"),
                                       ("vae", "iwae")])
def test_check_gradients_covers_every_op_a_training_step_records(monkeypatch, case, kind):
    # tvo check-gradients differentiates random_check_network networks
    fn, check_params = ad.random_check_network(0)
    check_tape = ad.Tape()
    fn(check_params.lift(check_tape))
    checked = {node.op for node in check_tape.nodes if node._parents}
    if case == "linear_sbn":
        model = SigmoidBeliefNet(d_x=8, d_z=3, layers=2, nonlinear=False)
        x = (np.random.default_rng(2).random((3, 8)) < 0.5).astype(np.float64)
        params = model.init_params(4)
    else:
        model, params, x = _single_pass_case(case)
    ops = set()
    backward = est.backward

    def recorded(out):
        ops.update(node.op for node in out.tape.nodes if node._parents)
        return backward(out)

    monkeypatch.setattr(est, "backward", recorded)
    spec = obj.ObjectiveSpec(kind, make_schedule(2, 0.3, "log"), S=5)
    obj.training_step(spec, model, params, x, seed=11)
    assert ops and ops <= checked, ops - checked


# tape lifetime ---------------------------------------------------------------


def _lifetime_step(case):
    """step(i) for one kind of training or gradient call."""
    if case == "value_and_grad":
        fn, params = ad.random_check_network(0)
        return lambda i: ad.value_and_grad(fn, params)
    if case == "vae_iwae":
        model, kind = GaussianVAE(d_x=8, d_z=3), "iwae"
    else:
        model = SigmoidBeliefNet(d_x=64, d_z=12, layers=2, nonlinear=False)
        kind = "iwae" if case == "discrete_iwae" else "tvo_lower"
    x = (np.random.default_rng(2).random((4, model.d_x)) < 0.5).astype(np.float64)
    params = model.init_params(4)
    spec = obj.ObjectiveSpec(kind, make_schedule(2, 0.3, "log"), S=5)
    return lambda i: obj.training_step(spec, model, params, x, seed=i, crn=case != "no_crn")


def _live_tape_objects():
    return sum(isinstance(o, (ad.Var, ad.Tape)) for o in gc.get_objects())


@pytest.mark.parametrize("case", ["crn_tvo_lower", "vae_iwae", "discrete_iwae", "no_crn",
                                  "value_and_grad"])
def test_each_step_frees_its_tape_without_the_cyclic_collector(case):
    # with the collector off, a tape left in a reference cycle would stay
    # alive: the count would grow by one tape per step
    step = _lifetime_step(case)
    gc.collect()
    gc.disable()
    try:
        step(0)
        after_one = _live_tape_objects()
        for i in range(1, 5):
            step(i)
        after_five = _live_tape_objects()
    finally:
        gc.enable()
    assert after_one > 0
    assert after_five == after_one
