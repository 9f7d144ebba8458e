import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvo import oracles, path, util
from tvo.errors import DomainError
from tvo.models import random_conjugate_gaussian, random_toy


# schedules -------------------------------------------------------------------


def test_schedule_single_partition():
    sched = path.make_schedule(1, 0.5, "equal")
    np.testing.assert_array_equal(sched.betas, [0.0, 1.0])
    sched_log = path.make_schedule(1, 0.5, "log")
    np.testing.assert_array_equal(sched_log.betas, [0.0, 1.0])


def test_schedule_uniform_grid():
    sched = path.make_schedule(4, spacing="equal")
    np.testing.assert_allclose(sched.betas, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)


def test_schedule_log_geometric_sequence():
    sched = path.make_schedule(3, beta1=0.01, spacing="log")
    np.testing.assert_allclose(sched.betas, [0.0, 0.01, 0.1, 1.0], rtol=0, atol=1e-15)


def test_schedule_rejects_zero_partitions():
    with pytest.raises(DomainError):
        path.make_schedule(0)


@pytest.mark.parametrize("beta1", [0.0, 1.0, -0.5, 2.0])
def test_schedule_rejects_bad_beta1_for_log_spacing(beta1):
    with pytest.raises(DomainError):
        path.make_schedule(3, beta1=beta1, spacing="log")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60))
def test_equal_widths_are_one_over_k(K):
    sched = path.make_schedule(K, spacing="equal")
    np.testing.assert_allclose(sched.widths, np.full(K, 1.0 / K), atol=1e-15)
    assert sched.betas[0] == 0.0 and sched.betas[-1] == 1.0
    assert abs(sched.widths.sum() - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.floats(1e-9, 0.9))
def test_log_spacing_has_constant_ratio(K, beta1):
    sched = path.make_schedule(K, beta1=beta1, spacing="log")
    assert sched.betas.size == K + 1
    knots = sched.betas[1:]
    ratios = knots[1:] / knots[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
    assert abs(sched.widths.sum() - 1.0) < 1e-12
    assert np.all(np.diff(sched.betas) > 0)


# integrand curve -------------------------------------------------------------


def test_curve_beta_zero_is_monte_carlo_elbo():
    model, params = random_toy(5, m=2, d_x=1)
    x = np.array([[1.0], [0.0], [1.0]])
    curve = path.integrand_curve(model, params, x, np.array([0.0, 0.5]), S=64, seed=9)
    from tvo.estimators import build_weight_table

    table = build_weight_table(model, params, x, 64, np.array([0.0, 0.5]), 9)
    # uniform average of U' over the shared samples
    assert curve.values[0] == pytest.approx(np.mean(table.log_w), rel=1e-12)


def test_curve_nondecreasing_with_exact_expectations():
    model, params = random_toy(6, m=3, d_x=2)
    x = np.array([0.0, 1.0])
    enum = oracles.enumerate_states(model, params, x)
    grid = np.linspace(0.0, 1.0, 41)
    exact = path.IntegrandCurve(grid, enum.g(grid))
    assert np.all(np.diff(exact.values) >= -1e-12)


def test_curve_matches_analytic_gaussian_within_three_se():
    model, params, x = random_conjugate_gaussian(8)
    grid = np.linspace(0.0, 1.0, 9)
    curve = path.integrand_curve(model, params, np.array([[x]]), grid, S=10_000, seed=17)
    analytic = model.analytic_g(params, x, grid)
    gap = np.abs(curve.values - analytic)
    assert np.all(gap <= 3.0 * np.maximum(curve.std_errors, 1e-12))


def test_curve_rejects_grid_outside_unit_interval():
    model, params = random_toy(5, m=2, d_x=1)
    with pytest.raises(DomainError):
        path.integrand_curve(model, params, np.array([[1.0]]), np.array([0.0, 1.2]), 8, 0)


def test_curve_beta_star_picks_maximum_curvature():
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    values = np.array([0.0, 0.1, 0.3, 1.2, 1.3])  # sharpest bend at 0.75... second diff
    curve = path.IntegrandCurve(grid, values)
    second = np.diff(values, 2)
    assert curve.beta_star() == grid[1:-1][np.argmax(second)]


def test_curve_csv_round_trip(tmp_path):
    curve = path.IntegrandCurve(np.array([0.0, 1.0]), np.array([-2.0, -1.0]),
                                np.array([0.01, 0.02]))
    out = tmp_path / "curve.csv"
    util.write_csv(out, path.IntegrandCurve.COLUMNS, curve.rows(), jsonl=True)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "beta,g_estimate,std_error"
    assert lines[1] == "0.0,-2.0,0.01"
    import json

    rec = json.loads((tmp_path / "curve.jsonl").read_text().splitlines()[0])
    assert rec == {"beta": 0.0, "g_estimate": -2.0, "std_error": 0.01}


# endpoint and derivative identities -------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_exact_endpoint_identities(seed):
    model, params = random_toy(seed, m=3, d_x=2)
    x, _ = model.sample_joint(params, 1, np.random.default_rng(seed))
    enum = oracles.enumerate_states(model, params, x[0])
    assert enum.g(np.array([0.0]))[0] == pytest.approx(enum.elbo(), abs=1e-12)
    assert enum.g(np.array([1.0]))[0] == pytest.approx(enum.eubo(), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_exact_derivative_identity(seed):
    model, params = random_toy(seed + 50, m=3, d_x=1)
    x = np.array([1.0])
    enum = oracles.enumerate_states(model, params, x)
    for beta in (0.25, 0.5, 0.75):
        fd, var = oracles.variance_identity_check(enum.g, enum.var_u, beta, h=1e-5)
        assert abs(fd - var) / max(1.0, var) <= 1e-6
