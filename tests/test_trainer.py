import struct
from dataclasses import replace

import numpy as np
import pytest

from tvo import autodiff as ad
from tvo import trainer as tr
from tvo.autodiff import TILE, ParamVector
from tvo.errors import ConfigError, FormatError
from tvo.estimators import build_weight_table
from tvo.objectives import iwae_estimate


# Adam -------------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    params = ParamVector.build({"a": np.array([1.0, -2.0])})
    state = tr.AdamState.for_params(params, lr=0.1)
    out = tr.adam_step(state, params, np.zeros(2))
    np.testing.assert_array_equal(out.vector, params.vector)


def test_adam_first_step_moves_by_learning_rate():
    params = ParamVector.build({"a": np.array([0.5, -0.5, 2.0])})
    state = tr.AdamState.for_params(params, lr=0.01)
    grad = np.array([0.3, -4.0, 1e-3])
    out = tr.adam_step(state, params, grad)
    # bias-corrected first step is lr * sign(g) up to the eps regularizer
    np.testing.assert_allclose(np.abs(out.vector - params.vector), 0.01, rtol=1e-4)
    np.testing.assert_array_equal(np.sign(params.vector - out.vector), np.sign(grad))


def test_adam_maximize_flips_direction():
    params = ParamVector.build({"a": np.array([0.0])})
    state = tr.AdamState.for_params(params, lr=0.1)
    out = tr.adam_step(state, params, np.array([1.0]), maximize=True)
    assert out.vector[0] > 0


def test_adam_converges_on_quadratic():
    params = ParamVector.build({"a": np.array([0.0])})
    state = tr.AdamState.for_params(params, lr=0.1)
    for _ in range(200):
        grad = 2.0 * (params.vector - 3.0)  # d/da (a-3)^2
        params = tr.adam_step(state, params, grad)
    assert abs(params.vector[0] - 3.0) < 0.05


def test_adam_aborts_step_on_nonfinite_gradient():
    params = ParamVector.build({"a": np.array([1.0])})
    state = tr.AdamState.for_params(params)
    out = tr.adam_step(state, params, np.array([np.nan]))
    np.testing.assert_array_equal(out.vector, params.vector)
    assert state.skipped == 1 and state.step == 0


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("maximize", [False, True])
def test_adam_matches_the_closed_form_bit_for_bit(maximize):
    rng = np.random.default_rng(8)
    for n in (64, 3 * TILE + 17):  # one partial tile; three whole tiles and a ragged one
        params = ParamVector.build({"a": rng.normal(size=n)})
        state = tr.AdamState.for_params(params, lr=0.01)
        b1, b2, eps, lr = state.beta1, state.beta2, state.eps, state.lr
        m, v, x = np.zeros(n), np.zeros(n), params.vector.copy()
        for t in range(1, 21):
            grad = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 3, size=n)
            grad[:2] = (0.0, -0.0)
            params = tr.adam_step(state, params, grad, maximize=maximize)
            g = -grad if maximize else grad
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_array_equal(_bits(state.m), _bits(m))
            np.testing.assert_array_equal(_bits(state.v), _bits(v))
            np.testing.assert_array_equal(_bits(params.vector), _bits(x))
            assert state.step == t


def test_adam_leaves_the_input_vector_and_gradient_unchanged():
    rng = np.random.default_rng(9)
    params = ParamVector.build({"a": rng.normal(size=10)})
    state = tr.AdamState.for_params(params, lr=0.1)
    grad = rng.normal(size=10)
    vec0, grad0 = params.vector.copy(), grad.copy()
    for maximize in (False, True):
        out = tr.adam_step(state, params, grad, maximize=maximize)
        assert out.vector is not params.vector
        np.testing.assert_array_equal(params.vector, vec0)
        np.testing.assert_array_equal(grad, grad0)


def test_adam_skipped_step_leaves_the_moments_untouched():
    params = ParamVector.build({"a": np.array([1.0, -1.0])})
    state = tr.AdamState.for_params(params, lr=0.1)
    params = tr.adam_step(state, params, np.array([0.5, -2.0]))
    m, v = state.m.copy(), state.v.copy()
    for bad in (np.array([np.nan, 1.0]), np.array([1.0, np.inf]), np.array([-np.inf, 0.0])):
        out = tr.adam_step(state, params, bad)
        assert out is params
    np.testing.assert_array_equal(_bits(state.m), _bits(m))
    np.testing.assert_array_equal(_bits(state.v), _bits(v))
    assert state.step == 1 and state.skipped == 3

    # a non-finite entry in the last tile must not let earlier tiles update
    n = 3 * TILE + 17
    params = ParamVector.build({"a": np.ones(n)})
    state = tr.AdamState.for_params(params, lr=0.1)
    params = tr.adam_step(state, params, np.linspace(-1.0, 1.0, n))
    m, v = state.m.copy(), state.v.copy()
    bad = np.ones(n)
    bad[-1] = np.nan
    assert tr.adam_step(state, params, bad) is params
    np.testing.assert_array_equal(_bits(state.m), _bits(m))
    np.testing.assert_array_equal(_bits(state.v), _bits(v))
    assert state.step == 1 and state.skipped == 1


# IDX loading -------------------------------------------------------------------


def write_idx_images(path, images):
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def test_idx_magic_numbers_accepted_and_rejected(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(10, 4, 4))
    write_idx_images(tmp_path / "imgs", images)
    assert tr.read_idx_images(tmp_path / "imgs").shape == (10, 16)

    bad = tmp_path / "bad"
    with open(bad, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000802, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(FormatError, match="byte 0"):
        tr.read_idx_images(bad)


def test_idx_truncation_reports_offset(tmp_path):
    images = np.zeros((4, 3, 3), dtype=np.uint8)
    write_idx_images(tmp_path / "imgs", images)
    blob = (tmp_path / "imgs").read_bytes()
    (tmp_path / "short").write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="truncated"):
        tr.read_idx_images(tmp_path / "short")


def test_mnist_split_binarization_and_limit(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(60_000, 2, 2))
    write_idx_images(tmp_path / "train", images)
    test_images = rng.integers(0, 256, size=(100, 2, 2))
    write_idx_images(tmp_path / "t10k", test_images)
    data = tr.load_mnist(tmp_path / "train", tmp_path / "t10k")
    assert data.train.shape == (50_000, 4)
    assert data.test.shape == (100, 4)
    held_out = tr.load_mnist(tmp_path / "train").test  # no test file: the held-out slice
    assert held_out.shape == (10_000, 4)
    for split in (data.train, data.test, held_out):
        assert set(np.unique(split)) <= {0.0, 1.0}
    np.testing.assert_array_equal(data.train[0], (images[0].reshape(-1) > 127.5).astype(float))
    np.testing.assert_array_equal(held_out, (images[50_000:].reshape(10_000, 4) > 127.5).astype(float))
    np.testing.assert_array_equal(data.test, (test_images.reshape(100, 4) > 127.5).astype(float))

    limited = tr.build_dataset(tr.RunConfig(dataset="mnist", images=str(tmp_path / "train"),
                                            test_images=str(tmp_path / "t10k"), limit=1000))
    assert limited.train.shape == (1000, 4)
    np.testing.assert_array_equal(limited.train, data.train[:1000])
    np.testing.assert_array_equal(limited.test, data.test)


def test_a_limited_mnist_split_owns_its_rows(tmp_path):
    # the limited split is a copy: it keeps no view of the full binarized split alive
    images = np.random.default_rng(2).integers(0, 256, size=(300, 2, 2))
    write_idx_images(tmp_path / "train", images)
    data = tr.build_dataset(tr.RunConfig(dataset="mnist", images=str(tmp_path / "train"), limit=10))
    assert data.train.shape == (10, 4)
    assert data.train.base is None


# config guards ------------------------------------------------------------------


def test_desk_caps_enforced_without_override():
    with pytest.raises(ConfigError, match="desk-scale cap"):
        tr.RunConfig(S=5000).validate()
    tr.RunConfig(S=5000, allow_full_scale=True).validate()


def test_unknown_output_format_is_rejected():
    with pytest.raises(ConfigError, match="format must be one of csv, jsonl"):
        tr.RunConfig(format="xml").validate()
    tr.RunConfig(format="jsonl").validate()


# train loop ---------------------------------------------------------------------


def test_train_conjugate_gaussian_vi_reaches_posterior():
    config = tr.RunConfig(model="conjugate-gaussian", objective="elbo", optimize="phi",
                          dataset="gaussian", d_x=1, S=10, K=1, lr=0.1, iters=2000,
                          batch=24, seed=1, train_items=500, test_items=100)
    result = tr.train(config)
    kls = [result.model.kl_q_posterior(result.params, float(x))
           for x in result.dataset.test[:50, 0]]
    assert float(np.mean(kls)) < 0.01


def test_train_writes_metrics_checkpoint_and_is_deterministic(tmp_path):
    def run(out):
        config = tr.RunConfig(model="toy", objective="tvo_lower", dataset="synthetic-toy",
                              d_x=2, m_latent=2, S=6, K=2, beta1=0.3, lr=0.05, iters=40,
                              batch=8, seed=3, train_items=64, test_items=32,
                              eval_interval=10, eval_samples=64, single_thread=True,
                              out=str(out))
        return tr.train(config)

    r1 = run(tmp_path / "a")
    r2 = run(tmp_path / "b")
    m1 = (tmp_path / "a" / "metrics.csv").read_bytes()
    m2 = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert m1 == m2
    assert (tmp_path / "a" / "checkpoint.tvom").read_bytes() == \
        (tmp_path / "b" / "checkpoint.tvom").read_bytes()
    header = m1.decode().splitlines()[0]
    assert header == "iteration,objective,test_log_evidence,kl_gap,grad_std,wallclock_ms"
    # single-thread mode keeps nondeterministic wall-clock out of the stream
    assert m1.decode().splitlines()[1].endswith(",,")
    np.testing.assert_array_equal(r1.params.vector, r2.params.vector)


def test_train_aborts_on_nonfinite_objective():
    class Exploding(tr.ToyBernoulli):
        def __init__(self):
            super().__init__(m=2, d_x=2)
            self.calls = 0

        def log_joint(self, view, x, z):
            out = super().log_joint(view, x, z)
            self.calls += 1
            if self.calls > 6:
                import numpy as _np
                return ad.add(out, _np.nan)
            return out

    config = tr.RunConfig(model="toy", objective="tvo_lower", dataset="synthetic-toy",
                          d_x=2, m_latent=2, S=4, K=1, iters=50, batch=4, seed=0,
                          train_items=16, test_items=8, eval_interval=100)
    data = tr.build_dataset(config)
    model = Exploding()
    import tvo.trainer as trainer_mod

    original = trainer_mod.build_model
    trainer_mod.build_model = lambda cfg, dat: model
    try:
        result = tr.train(config, data)
    finally:
        trainer_mod.build_model = original
    assert result.aborted
    assert result.events and "non-finite" in result.events[0]


def test_wake_sleep_produces_both_metric_streams(tmp_path):
    config = tr.RunConfig(model="toy", objective="wake_sleep", dataset="synthetic-toy",
                          d_x=2, m_latent=2, S=6, iters=20, batch=6, seed=2,
                          train_items=32, test_items=16, eval_interval=5,
                          eval_samples=32, out=str(tmp_path / "ws"))
    result = tr.train(config)
    assert result.metrics and result.sleep_metrics
    assert (tmp_path / "ws" / "metrics.csv").exists()
    assert (tmp_path / "ws" / "metrics_sleep.csv").exists()
    assert len(result.metrics) == len(result.sleep_metrics)


def test_eval_iwae_monotone_in_sample_count():
    config = tr.RunConfig(model="toy", objective="tvo_lower", dataset="synthetic-toy",
                          d_x=2, m_latent=2, S=6, K=1, iters=1, batch=4, seed=5,
                          train_items=64, test_items=64)
    data = tr.build_dataset(config)
    model = tr.build_model(config, data)
    params = model.init_params(5)
    items = data.test[:64]
    means, ses = [], []
    for s_eval in (10, 100, 500):
        vals = []
        for rep in range(20):
            table = build_weight_table(model, params, items, s_eval,
                                       np.array([0.0, 1.0]), seed=rep * 17 + s_eval)
            vals.append(float(np.mean(np.asarray(iwae_estimate(table.log_w)))))
        means.append(np.mean(vals))
        ses.append(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    for lo, hi, se_lo, se_hi in zip(means[:-1], means[1:], ses[:-1], ses[1:]):
        assert hi - lo >= -2.0 * np.hypot(se_lo, se_hi)


@pytest.mark.parametrize("objective", ["iwae", "tvo_lower"])
def test_gaussian_vae_trains_under_both_gradient_paths(objective):
    # iwae routes through the pathwise gradient, tvo_lower through the
    # covariance estimator; both should improve the test bound
    config = tr.RunConfig(model="gaussian-vae", objective=objective,
                          dataset="synthetic-sbn", d_x=12, d_z=4, S=5, K=2,
                          beta1=0.3, lr=3e-3, iters=150, batch=8, seed=3,
                          train_items=64, test_items=32, eval_interval=50,
                          eval_samples=64)
    result = tr.train(config)
    assert not result.aborted
    assert result.metrics[-1].objective > result.metrics[0].objective
    assert np.isfinite(result.metrics[-1].test_log_evidence)


# sweeps --------------------------------------------------------------------------


def test_single_cell_sweep_is_byte_identical_to_train(tmp_path):
    base = tr.RunConfig(model="toy", objective="tvo_lower", dataset="synthetic-toy",
                        d_x=2, m_latent=2, S=6, K=2, beta1=0.3, lr=0.05, iters=30,
                        batch=8, seed=7, train_items=64, test_items=32,
                        eval_interval=10, eval_samples=64, single_thread=True)
    from dataclasses import replace

    direct = tr.train(replace(base, out=str(tmp_path / "direct")))
    rows, results = tr.sweep(replace(base, out=str(tmp_path / "sweep")))
    assert len(rows) == 1 and rows[0][5] == "ok"
    direct_bytes = (tmp_path / "direct" / "metrics.csv").read_bytes()
    cell_bytes = (tmp_path / "sweep" / "cell000" / "metrics.csv").read_bytes()
    assert direct_bytes == cell_bytes


@pytest.mark.filterwarnings("ignore::tvo.errors.DegenerateWeightsWarning")  # 2-step eubo cells
def test_sweep_rows_leave_the_schedule_values_no_run_read_empty(tmp_path):
    base = tr.RunConfig(model="toy", objective="tvo_lower", dataset="synthetic-toy",
                        d_x=2, m_latent=2, S=4, iters=2, batch=4, seed=7, train_items=16,
                        test_items=8, eval_samples=8, out=str(tmp_path / "log"))
    rows, _ = tr.sweep(base, beta1_list=[0.2, 0.4], K_list=[1, 3])
    # product cell 2 repeats cell 0's (K = 1) row values, so it is not run
    assert [(row[0], *row[1:3], row[4]) for row in rows] == [(0, None, 1, 7), (1, 0.2, 3, 8),
                                                             (3, 0.4, 3, 10)]
    table = (tmp_path / "log" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[:3] for line in table[1:]] == [["0", "", "1"], ["1", "0.2", "3"],
                                                           ["3", "0.4", "3"]]
    assert sorted(p.name for p in (tmp_path / "log").glob("cell*")) == ["cell000", "cell001",
                                                                        "cell003"]
    rows, _ = tr.sweep(replace(base, spacing="equal", out=""), K_list=[1, 3])
    assert [row[1:3] for row in rows] == [(None, 1), (None, 3)]
    for objective in ("elbo", "eubo", "iwae", "wake_sleep"):
        rows, _ = tr.sweep(replace(base, objective=objective, out=""), S_list=[2, 3])
        assert [row[1:4] for row in rows] == [(None, None, 2), (None, None, 3)]


@pytest.mark.parametrize("changes,lists,named", [
    ({"objective": "elbo"}, {"K_list": [1, 4], "beta1_list": [0.1, 0.5]}, "--K-list, --beta1-list"),
    ({"objective": "iwae"}, {"K_list": [4]}, "--K-list"),
    ({"spacing": "equal"}, {"beta1_list": [0.1, 0.5]}, "--beta1-list"),
    ({"K": 1}, {"beta1_list": [0.1, 0.5]}, "--beta1-list"),
], ids=["elbo", "iwae", "equal", "K1"])
def test_sweep_axis_no_schedule_reads_is_a_config_error(tmp_path, monkeypatch, changes, lists, named):
    monkeypatch.setattr(tr, "train", None)  # no cell may start
    config = replace(tr.RunConfig(model="toy", dataset="synthetic-toy", d_x=2, m_latent=2,
                                  out=str(tmp_path / "sw")), **changes)
    with pytest.raises(ConfigError, match=named):
        tr.sweep(config, **lists)
    assert not (tmp_path / "sw").exists()


def test_sweep_records_cell_failures_and_continues(tmp_path):
    base = tr.RunConfig(model="toy", objective="tvo_lower", dataset="synthetic-toy",
                        d_x=2, m_latent=2, S=6, K=2, beta1=0.3, lr=0.05, iters=10,
                        batch=8, seed=7, train_items=32, test_items=16,
                        out=str(tmp_path / "sweep"))
    rows, results = tr.sweep(base, beta1_list=[2.0, 0.3])  # 2.0 is invalid for log spacing
    assert len(rows) == 2
    assert rows[0][5].startswith("error")
    assert rows[1][5] == "ok"
    assert (tmp_path / "sweep" / "sweep.csv").exists()


def test_sweep_lets_programming_errors_propagate(tmp_path, monkeypatch):
    base = tr.RunConfig(model="toy", objective="tvo_lower", dataset="synthetic-toy",
                        d_x=2, m_latent=2, S=6, K=2, beta1=0.3, lr=0.05, iters=10,
                        batch=8, seed=7, train_items=32, test_items=16,
                        out=str(tmp_path / "sweep"))

    def broken(config, data=None):
        raise TypeError("a bug, not a failed cell")

    monkeypatch.setattr(tr, "train", broken)
    with pytest.raises(TypeError, match="a bug"):
        tr.sweep(base, beta1_list=[0.3, 0.5])


def test_sweep_final_log_evidence_nondecreasing_in_samples():
    base = tr.RunConfig(model="toy", objective="tvo_lower", dataset="synthetic-toy",
                        d_x=3, m_latent=3, S=2, K=2, beta1=0.3, lr=0.02, iters=500,
                        batch=16, seed=11, train_items=400, test_items=100,
                        eval_interval=500, eval_samples=300)
    rows, _ = tr.sweep(base, S_list=[2, 5, 10, 50])
    finals = [row[7] for row in rows]
    assert all(status == "ok" for status in [row[5] for row in rows])
    for lo, hi in zip(finals[:-1], finals[1:]):
        assert hi >= lo - 0.2  # within noise, more particles never hurt
