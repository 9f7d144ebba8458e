"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured numbers (run with -s or -v to see them).

The sampled-gradient consistency check (criterion 4) arranges its 1e5 latent
draws as 100 independent estimates of 1000 samples each, so the O(1/S)
small-sample bias of the self-normalized estimator stays below the 3-SE
noise floor of the comparison.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from tvo import estimators as est
from tvo import objectives as obj
from tvo import oracles
from tvo.autodiff import finite_difference_gradient, random_check_network, value_and_grad
from tvo.cli import main as cli_main
from tvo.estimators import build_weight_table, exact_weight_table
from tvo.models import ConjugateGaussian, random_conjugate_gaussian, random_toy
from tvo.objectives import ObjectiveSpec, training_gradient
from tvo.path import make_schedule
from tvo.trainer import RunConfig, synthetic_dataset, train

N_INSTANCES = 100


def toy_instance(seed):
    rng = np.random.default_rng([seed, 71])
    m = int(rng.integers(2, 5))
    d_x = int(rng.integers(1, 4))
    model, params = random_toy(seed, m=m, d_x=d_x)
    x, _ = model.sample_joint(params, 1, rng)
    return model, params, x[0]


def gaussian_instance(seed):
    return random_conjugate_gaussian(seed)


def tell(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


def test_c01_tvi_identity_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(N_INSTANCES):
        model, params, x = toy_instance(seed)
        enum = oracles.enumerate_states(model, params, x)
        residual = oracles.ti_identity_check(enum.g, enum.log_evidence, 10_000)
        worst = max(worst, residual)
        assert residual < 1e-5
    for seed in range(N_INSTANCES):
        model, params, x = gaussian_instance(seed)
        residual = oracles.ti_identity_check(
            lambda b: model.analytic_g(params, x, b),
            model.analytic_log_evidence(params, x), 10_000)
        worst = max(worst, residual)
        assert residual < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    tell(1, f"200 instances, worst residual {worst:.2e}, {elapsed:.1f}s")


@pytest.mark.filterwarnings("ignore::tvo.errors.DegenerateWeightsWarning")
def test_c02_bound_sandwich():
    violations = 0
    for seed in range(N_INSTANCES):
        model, params, x = toy_instance(seed)
        enum = oracles.enumerate_states(model, params, x)
        lp = enum.log_evidence
        for K in (1, 2, 5, 20):
            sched = make_schedule(K)
            table = exact_weight_table(model, params, x, sched.betas)
            elbo = obj.elbo_estimate(table)
            eubo = obj.eubo_estimate(table)
            lower = obj.tvo_lower(table, sched)
            upper = obj.tvo_upper(table, sched)
            if K == 1:
                assert lower == elbo and upper == eubo  # bit-identical reductions
            ok = elbo <= lower + 1e-12 and lower <= lp + 1e-10 \
                and lp <= upper + 1e-10 and upper <= eubo + 1e-12
            violations += not ok
    for seed in range(N_INSTANCES):
        model, params, x = gaussian_instance(seed)
        lp = model.analytic_log_evidence(params, x)
        for K in (1, 2, 5, 20):
            sched = make_schedule(K)
            g = model.analytic_g(params, x, sched.betas)
            lower = float(sched.widths @ g[:-1])
            upper = float(sched.widths @ g[1:])
            ok = g[0] <= lower + 1e-12 and lower <= lp + 1e-9 \
                and lp <= upper + 1e-9 and upper <= g[-1] + 1e-12
            violations += not ok
    assert violations == 0
    tell(2, f"200 instances x K in {{1,2,5,20}}, zero violations")


def test_c03_monotone_integrand_and_variance_identity():
    grid = np.linspace(0.0, 1.0, 100)
    worst = 0.0
    for seed in range(N_INSTANCES):
        model, params, x = toy_instance(seed)
        enum = oracles.enumerate_states(model, params, x)
        assert np.all(np.diff(enum.g(grid)) >= -1e-12)
        for beta in (0.1, 0.5, 0.9):
            fd, var = oracles.variance_identity_check(enum.g, enum.var_u, beta, h=1e-5)
            rel = abs(fd - var) / max(1.0, var)
            worst = max(worst, rel)
            assert rel < 1e-6
    for seed in range(N_INSTANCES):
        model, params, x = gaussian_instance(seed)
        g = model.analytic_g(params, x, grid)
        assert np.all(np.diff(g) >= -1e-12)
        for beta in (0.1, 0.5, 0.9):
            fd, var = oracles.variance_identity_check(
                lambda b: model.analytic_g(params, x, b),
                lambda b: model.analytic_var_u(params, x, b), beta, h=1e-5)
            rel = abs(fd - var) / max(1.0, var)
            worst = max(worst, rel)
            assert rel < 1e-6
    tell(3, f"200 instances monotone; worst variance-identity gap {worst:.2e}")


def test_c04_covariance_estimator_correctness():
    # exact expectations against finite differences, 20 random parameter draws
    worst_exact = 0.0
    for trial in range(20):
        model, params = random_toy(6000 + trial, m=2, d_x=1)
        x = np.array([1.0])
        for beta in (0.1, 0.5, 0.9):
            grad = est.exact_enumeration_gradient(model, params, x, beta).vector
            fd = oracles.exact_expectation_gradient(model, params, x, beta)
            rel = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd)))
            worst_exact = max(worst_exact, rel)
            assert rel < 1e-6

    # sampled: 100 estimates x S=1000 (1e5 draws) within 3 SE per coordinate
    model, params = random_toy(1104, m=2, d_x=1, scale=0.7)
    x = np.array([1.0])
    worst_z = 0.0
    for beta in (0.1, 0.5, 0.9):
        exact = est.exact_enumeration_gradient(model, params, x, beta).vector
        sched = np.array([0.0, beta, 1.0])
        draws = []
        for i in range(100):
            table = build_weight_table(model, params, x[None, :], 1000, sched, seed=8800 + i)
            draws.append(est.covariance_gradient(model, params, None, table, 1).vector)
        draws = np.stack(draws)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        z = np.abs(mean - exact) / np.maximum(se, 1e-14)
        worst_z = max(worst_z, float(z.max()))
        assert np.all(z <= 3.0)

    # the normalizer-gradient lemma, exactly by enumeration
    worst_lemma = 0.0
    for seed in range(10):
        model, params = random_toy(6100 + seed, m=2, d_x=2)
        x = np.array([1.0, 0.0])
        for beta in (0.1, 0.5, 0.9):
            gap = oracles.gradient_lemma_gap(model, params, x, beta)
            worst_lemma = max(worst_lemma, gap)
            assert gap < 1e-10
    tell(4, f"exact rel {worst_exact:.2e}; sampled max |z| {worst_z:.2f}; "
            f"lemma gap {worst_lemma:.2e}")


def test_c05_autodiff_against_finite_differences():
    worst = 0.0
    for seed in range(50):
        fn, params = random_check_network(seed)
        _, grad = value_and_grad(fn, params)

        def evaluate(vec, fn=fn, params=params):
            return value_and_grad(fn, params.with_vector(vec))[0]

        fd = finite_difference_gradient(evaluate, params.vector, h=1e-5)
        rel = float(np.max(np.abs(grad - fd)) / max(1.0, float(np.max(np.abs(fd)))))
        worst = max(worst, rel)
        assert rel <= 1e-5
    tell(5, f"50 networks, worst relative error {worst:.2e}")


def desk_sbn_mid_training():
    data = synthetic_dataset("sbn", 999, d_x=64, n_train=400, n_test=50,
                             generator_kwargs={"d_z": 24, "weight_scale": 4.0})
    config = RunConfig(model="sbn", objective="tvo_lower", dataset="synthetic-sbn",
                       d_x=64, d_z=12, S=10, K=2, beta1=0.3, spacing="log", lr=3e-3,
                       iters=150, batch=24, seed=6, train_items=400, test_items=50,
                       eval_interval=10 ** 9)
    result = train(config, data)
    return result.model, result.params, data


def test_c06_common_random_numbers_reduce_gradient_std():
    model, params, data = desk_sbn_mid_training()
    x_batch = data.train[:8]
    spec = ObjectiveSpec("tvo_lower", make_schedule(2, 0.5, "log"), S=10, optimize="both")

    def diagnostic(crn, seed):
        def estimator(rep_seed):
            return training_gradient(spec, model, params, x_batch, rep_seed, crn=crn)

        return est.gradient_std_diagnostic(estimator, repetitions=10, seed=seed)

    ratios = []
    wins = 0
    for trial in range(10):
        with_crn = diagnostic(True, trial)
        without = diagnostic(False, trial)
        ratios.append(without / with_crn)
        wins += with_crn < without
    assert wins >= 9
    tell(6, f"CRN smaller in {wins}/10 trials, median ratio {np.median(ratios):.2f}")


def test_c07_estimator_variance_ordering():
    model = ConjugateGaussian()
    params = model.init_params(4)
    xb = np.array([[0.8]])

    def cell_std(kind, S, seed):
        def estimator(rep_seed):
            if kind == "reparam":
                return est.reparam_gradient(model, params, xb, "elbo", S, rep_seed)
            table = build_weight_table(model, params, xb, S, np.array([0.0, 1.0]), rep_seed)
            if kind == "cov":
                return est.covariance_gradient(model, params, None, table, 0)
            return est.reinforce_baseline_gradient(model, params, None, table, 0)

        return est.gradient_std_diagnostic(estimator, repetitions=10, seed=seed)

    summary = []
    for S in (5, 10, 50):
        means = {kind: float(np.mean([cell_std(kind, S, s) for s in range(10)]))
                 for kind in ("reparam", "cov", "rbase")}
        assert means["reparam"] < means["cov"] < means["rbase"]
        summary.append(f"S={S}: {means['reparam']:.3f} < {means['cov']:.3f} < {means['rbase']:.3f}")
    tell(7, "; ".join(summary))


def test_c08_beta1_sweep_shape():
    start = time.perf_counter()
    data = synthetic_dataset("sbn", 999, d_x=64, n_train=1000, n_test=200,
                             generator_kwargs={"d_z": 24, "weight_scale": 4.0})
    base = RunConfig(model="sbn", objective="tvo_lower", dataset="synthetic-sbn",
                     d_x=64, d_z=12, S=10, K=2, spacing="log", lr=3e-3, iters=1500,
                     batch=24, seed=0, train_items=1000, test_items=200,
                     eval_interval=1500, eval_samples=500)
    grid = [1e-10, 0.03, 0.1, 0.3, 0.9]
    means = {}
    for beta1 in grid:
        finals = []
        for seed in (0, 1, 2):
            result = train(replace(base, beta1=beta1, seed=seed), data)
            finals.append(result.metrics[-1].test_log_evidence)
        means[beta1] = float(np.mean(finals))
    interior_best = max(means[b] for b in (0.03, 0.1, 0.3))
    margin_low = interior_best - means[1e-10]
    margin_high = interior_best - means[0.9]
    elapsed = time.perf_counter() - start
    assert margin_low >= 0.1 and margin_high >= 0.1
    assert elapsed < 30 * 60
    tell(8, f"interior best {interior_best:.3f} beats extremes by "
            f"{margin_low:.2f}/{margin_high:.2f} nats in {elapsed:.0f}s")


def test_c09_desk_training_recovers_generator_evidence():
    start = time.perf_counter()
    config = RunConfig(model="toy", objective="tvo_lower", optimize="both",
                       dataset="synthetic-toy", d_x=3, m_latent=3, S=10, K=2,
                       beta1=0.3, spacing="log", lr=0.02, iters=3000, batch=24,
                       seed=2, train_items=2000, test_items=200)
    result = train(config)
    gen = result.dataset.generator
    gen_params = result.dataset.generator_params
    gen_lp = np.mean([oracles.enumerate_states(gen, gen_params, x).log_evidence
                      for x in result.dataset.test])
    fit_lp = np.mean([oracles.enumerate_states(result.model, result.params, x).log_evidence
                      for x in result.dataset.test])
    gap = abs(float(gen_lp) - float(fit_lp))
    elapsed = time.perf_counter() - start
    assert gap < 0.1
    assert elapsed < 5 * 60
    tell(9, f"test log-evidence gap {gap:.4f} nats in {elapsed:.0f}s")


def test_c10_partitions_cheaper_than_particles():
    data = synthetic_dataset("sbn", 999, d_x=64, n_train=400, n_test=50,
                             generator_kwargs={"d_z": 24, "weight_scale": 4.0})
    base = RunConfig(model="sbn", objective="tvo_lower", dataset="synthetic-sbn",
                     d_x=64, d_z=12, S=10, K=2, beta1=0.3, spacing="log", lr=3e-3,
                     iters=100, batch=24, seed=0, train_items=400, test_items=50,
                     eval_interval=10 ** 9)

    def timed(config):
        t0 = time.perf_counter()
        train(config, data)
        return time.perf_counter() - t0

    timed(base)  # warm the caches before measuring
    growth_k = timed(replace(base, K=50, S=10)) / timed(replace(base, K=2, S=10))
    growth_s = timed(replace(base, K=2, S=50)) / timed(replace(base, K=2, S=2))
    assert growth_k < growth_s
    tell(10, f"100-iteration wall-clock growth: K 2->50 is {growth_k:.2f}x, "
             f"S 2->50 is {growth_s:.2f}x")


def test_c11_cli_determinism(tmp_path):
    args = ["train", "--model", "toy", "--dataset", "synthetic-toy", "--d-x", "2",
            "--m-latent", "2", "--S", "6", "--K", "2", "--beta1", "0.3",
            "--iters", "40", "--batch", "8", "--seed", "12", "--train-items", "32",
            "--test-items", "16", "--eval-interval", "10", "--eval-samples", "32",
            "--single-thread"]
    assert cli_main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "r2")]) == 0
    first = (tmp_path / "r1" / "metrics.csv").read_bytes()
    second = (tmp_path / "r2" / "metrics.csv").read_bytes()
    assert first == second

    diag = ["diagnose-grad-std", "--estimator", "cov", "--model", "toy", "--dataset",
            "synthetic-toy", "--d-x", "2", "--m-latent", "2", "--S", "4", "--reps", "3",
            "--K", "1", "--seed", "5", "--single-thread"]
    assert cli_main(diag + ["--out", str(tmp_path / "g1.csv")]) == 0
    assert cli_main(diag + ["--out", str(tmp_path / "g2.csv")]) == 0
    assert (tmp_path / "g1.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()
    tell(11, "train and diagnose CSV outputs byte-identical across reruns")
