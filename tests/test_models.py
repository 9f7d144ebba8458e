import tracemalloc

import numpy as np
import pytest

from tvo import models, oracles
from tvo.autodiff import TILE, value_of
from tvo.errors import DomainError, FormatError
from tvo.models import (ConjugateGaussian, GaussianVAE, SigmoidBeliefNet,
                        ToyBernoulli, load_checkpoint, random_conjugate_gaussian,
                        random_toy, restore_params, save_checkpoint)
from tvo.util import rng_stream, sigmoid


def _batch_noise(model, rng, B, S):
    """The whole batch's proposal noise: noise_blocks' one block of B items."""
    return next(model.noise_blocks(rng, B, S, B))[1]


def test_toy_uniform_tables_give_uniform_joint():
    model = ToyBernoulli(m=2, d_x=1)
    params = model.init_params(0)
    params = params.with_vector(np.zeros(params.size))
    view = params.as_dict()
    x = np.array([[1.0]])
    z = model.all_states()[None, :]
    lj = np.asarray(model.log_joint(view, x, z))
    np.testing.assert_allclose(lj, 3.0 * np.log(0.5), atol=1e-12)
    enum = oracles.enumerate_states(model, params, x[0])
    assert enum.log_evidence == pytest.approx(np.log(0.5), abs=1e-12)


def test_conjugate_gaussian_standard_marginal():
    model = ConjugateGaussian()
    params = model.init_params(0).with_vector(np.zeros(6))  # mu0=0, all stds 1, q arbitrary
    # log N(0 | 0, 2) = -0.5 log(4 pi)
    assert model.analytic_log_evidence(params, 0.0) == pytest.approx(-0.5 * np.log(4 * np.pi), abs=1e-12)


def test_gaussian_vae_log_q_at_encoder_mean():
    model = GaussianVAE(d_x=6, d_z=3)
    params = model.init_params(3)
    x = (np.arange(6.0)[None, :] % 2)
    view = params.as_dict()
    mean, log_std = model.q_mean_log_std(view, x)
    z = np.asarray(mean)
    lq = np.asarray(model.log_q(view, x, z))[0, 0]
    expected = np.sum(-0.5 * np.log(2 * np.pi) - np.asarray(log_std)[0, 0])
    assert lq == pytest.approx(expected, abs=1e-10)


def test_conjugate_gaussian_posterior_matched_curve_is_flat():
    model = ConjugateGaussian()
    params = model.init_params(1)
    x = 0.7
    mu0 = float(params.get("theta/prior_mean"))
    v0 = np.exp(2 * float(params.get("theta/prior_log_std")))
    vl = np.exp(2 * float(params.get("theta/lik_log_std")))
    v_post = 1.0 / (1.0 / v0 + 1.0 / vl)
    params = params.replace(**{
        "phi/q_slope": np.array(v_post / vl),
        "phi/q_bias": np.array(v_post * mu0 / v0),
        "phi/q_log_std": np.array(0.5 * np.log(v_post)),
    })
    grid = np.linspace(0, 1, 11)
    g = model.analytic_g(params, x, grid)
    logp = model.analytic_log_evidence(params, x)
    np.testing.assert_allclose(g, logp, atol=1e-10)


def test_conjugate_gaussian_quadrature_of_analytic_g():
    model, params, x = random_conjugate_gaussian(12)
    grid = np.linspace(0.0, 1.0, 10_000)
    integral = np.trapezoid(model.analytic_g(params, x, grid), grid)
    assert integral == pytest.approx(model.analytic_log_evidence(params, x), abs=1e-6)


def test_conjugate_gaussian_endpoint_gap_is_symmetrized_kl():
    model, params, x = random_conjugate_gaussian(13)
    gap = model.analytic_g(params, x, 1.0) - model.analytic_g(params, x, 0.0)
    kls = model.kl_q_posterior(params, x) + model.kl_posterior_q(params, x)
    assert gap == pytest.approx(kls, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_toy_distributions_normalize(seed):
    model, params = random_toy(seed, m=3, d_x=2)
    lp_z, lp_x_given_z, lp_q = model.state_tables(params)
    assert np.exp(lp_z).sum() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(np.exp(lp_x_given_z).sum(axis=1), 1.0, atol=1e-10)
    np.testing.assert_allclose(np.exp(lp_q).sum(axis=1), 1.0, atol=1e-10)
    # joint over (x, z) sums to one
    joint = np.exp(lp_z)[:, None] * np.exp(lp_x_given_z)
    assert joint.sum() == pytest.approx(1.0, abs=1e-10)


def test_toy_sample_q_frequencies_match_density():
    model, params = random_toy(30, m=3, d_x=1)
    x = np.array([[1.0]])
    n = 100_000
    zs, _ = model.sample_q(params.as_dict(), x, _batch_noise(model, rng_stream(5, 1), 1, n))
    counts = np.bincount(zs[0], minlength=model.n_z)
    probs = np.exp(model.state_tables(params)[2])[1]  # x index 1
    freq = counts / n
    se = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(freq - probs) <= 4 * np.maximum(se, 1e-6))


def test_toy_posterior_proposal_matches_enumeration():
    model, params = random_toy(31, m=2, d_x=2)
    matched = model.posterior_proposal(params)
    for x_idx in range(model.n_x):
        x = models.index_to_bits(np.array([x_idx]), model.d_x)
        enum = oracles.enumerate_states(model, matched, x[0])
        np.testing.assert_allclose(np.exp(enum.log_q), enum.posterior, atol=1e-12)


def test_sbn_log_densities_finite_everywhere():
    model = SigmoidBeliefNet(d_x=12, d_z=5, layers=2)
    rng = rng_stream(7, 2)
    params = model.init_params(7)
    x, _ = model.sample_joint(params, 4, rng)
    view = params.as_dict()
    zs, lq_drawn = model.sample_q(view, x, _batch_noise(model, rng, 4, 6))
    lj = np.asarray(model.log_joint(view, x, zs))
    lq = np.asarray(model.log_q(view, x, zs))
    assert lj.shape == (4, 6) and lq.shape == (4, 6)
    assert np.all(np.isfinite(lj)) and np.all(np.isfinite(lq))
    np.testing.assert_array_equal(lq_drawn, lq)


def test_sbn_nonlinear_variant_runs():
    model = SigmoidBeliefNet(d_x=8, d_z=4, layers=2, nonlinear=True)
    params = model.init_params(3)
    x, _ = model.sample_joint(params, 2, rng_stream(1, 1))
    zs, _ = model.sample_q(params.as_dict(), x, _batch_noise(model, rng_stream(1, 2), 2, 3))
    lj = np.asarray(model.log_joint(params.as_dict(), x, zs))
    assert np.all(np.isfinite(lj))


def _generator(d_x, d_z, scale, seed, nonlinear=True):
    """A frozen synthetic-data SBN with scaled weights and a non-trivial x_bias."""
    model = SigmoidBeliefNet(d_x=d_x, d_z=d_z, layers=2, nonlinear=nonlinear,
                             x_mean=np.linspace(0.1, 0.9, d_x))
    params = model.init_params(seed)
    return model, params.with_vector(params.vector * scale)


def _one_shot_sample_joint(model, params, n, rng):
    """Reference ancestral draw: the observation layer in one (n, d_x) pass."""
    view = params.as_dict()
    z = np.zeros((n, 1, model.layers, model.d_z))
    top_probs = sigmoid(view["theta/prior"])
    z[:, 0, model.layers - 1, :] = (rng.random((n, model.d_z)) < top_probs).astype(np.float64)
    for ell in range(model.layers - 1, 0, -1):
        logits = value_of(model._apply_map(view, f"theta/dec{ell}", 2.0 * z[:, :, ell, :] - 1.0))
        z[:, :, ell - 1, :] = (rng.random((n, 1, model.d_z)) < sigmoid(logits)).astype(np.float64)
    logits_x = value_of(model._apply_map(view, "theta/decx", 2.0 * z[:, :, 0, :] - 1.0)) + model.x_bias
    x = (rng.random((n, 1, model.d_x)) < sigmoid(logits_x)).astype(np.float64)
    return x[:, 0, :], z[:, 0, :, :]


@pytest.mark.parametrize("d_x,d_z,scale,n", [(784, 50, 2.5, 259), (64, 24, 4.0, 3077)])
def test_sbn_sample_joint_in_row_tiles_matches_the_one_shot_draw(d_x, d_z, scale, n):
    assert n > 2 * (TILE // d_x)  # at least three row tiles, the last one partial
    model, params = _generator(d_x, d_z, scale, seed=999)
    x, z = model.sample_joint(params, n, rng_stream(999, 211))
    x_ref, z_ref = _one_shot_sample_joint(model, params, n, rng_stream(999, 211))
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(z, z_ref)


def test_sbn_synthesis_peak_stays_below_twice_the_dataset():
    from tvo.trainer import synthetic_dataset

    tracemalloc.start()
    try:
        data = synthetic_dataset("sbn", 999, 784, n_train=1008, n_val=0, n_test=0,
                                 generator_kwargs={"d_z": 50, "weight_scale": 2.5})
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.train.shape == (1008, 784)
    assert peak < 2 * retained


def test_sbn_sample_joint_frequencies_match_enumerated_joint():
    """Chi-square of (x, z) counts against exp(log_joint) over all 16 x 64
    states of a 2-layer SBN, cells with expected count below 5 pooled into
    one. The bound is the 1 - 1e-4 quantile of chi-square(df) (Wilson-Hilferty)."""
    model, params = _generator(4, 3, 2.5, seed=0)
    n = 50_000
    assert n > 2 * (TILE // model.d_x)
    x, z = model.sample_joint(params, n, rng_stream(0, 77))
    counts = np.bincount(models.bits_to_index(x) * 64 + models.bits_to_index(z.reshape(n, 6)),
                         minlength=16 * 64)
    xs = models.index_to_bits(np.arange(16), 4)
    zs = np.broadcast_to(models.index_to_bits(np.arange(64), 6).reshape(1, 64, 2, 3), (16, 64, 2, 3))
    p = np.exp(np.asarray(model.log_joint(params.as_dict(), xs, zs))).ravel()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    expected = n * p
    small = expected < 5
    observed = np.append(counts[~small], counts[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    assert expected[-1] >= 5
    df = observed.size - 1
    stat = np.sum((observed - expected) ** 2 / expected)
    bound = df * (1 - 2 / (9 * df) + 3.719 * np.sqrt(2 / (9 * df))) ** 3
    assert stat < bound


# exact judges on small SBNs: every (x, z) state enumerated

_SMALL_SBNS = {"linear": (2, False), "nonlinear": (2, True), "3-layer": (3, False)}


def _small_sbn(name):
    """A d_x 4, d_z 3 SBN with its initial parameters doubled, and every
    latent state as a (1, Z, layers, d_z) array in index_to_bits order."""
    layers, nonlinear = _SMALL_SBNS[name]
    model = SigmoidBeliefNet(d_x=4, d_z=3, layers=layers, nonlinear=nonlinear,
                             x_mean=np.linspace(0.1, 0.9, 4))
    params = model.init_params(3)
    n_z = 2 ** (layers * 3)
    zs = models.index_to_bits(np.arange(n_z), layers * 3).reshape(1, n_z, layers, 3)
    return model, params.with_vector(2.0 * params.vector), zs


@pytest.mark.parametrize("name", sorted(_SMALL_SBNS))
def test_small_sbn_joint_and_proposal_normalize(name):
    model, params, zs = _small_sbn(name)
    xs = models.index_to_bits(np.arange(16), 4)
    zs = np.broadcast_to(zs, (16,) + zs.shape[1:])
    view = params.as_dict()
    joint = np.exp(np.asarray(model.log_joint(view, xs, zs)))
    q = np.exp(np.asarray(model.log_q(view, xs, zs)))
    assert abs(joint.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(_SMALL_SBNS))
def test_small_sbn_sample_q_counts_match_enumerated_q(name):
    """Pearson chi-square of S = 20,000 sample_q states of one x against
    exp(log q) over every state, below dof + 5 sqrt(2 dof)."""
    model, params, zs = _small_sbn(name)
    view, x, S = params.as_dict(), np.array([[1.0, 0.0, 1.0, 1.0]]), 20_000
    n_z = zs.shape[1]
    z, _ = model.sample_q(view, x, _batch_noise(model, rng_stream(11, 5), 1, S))
    counts = np.bincount(models.bits_to_index(z.reshape(S, -1)), minlength=n_z)
    expected = S * np.exp(np.asarray(model.log_q(view, x, zs)))[0]
    dof = n_z - 1
    stat = np.sum((counts - expected) ** 2 / expected)
    assert stat < dof + 5 * np.sqrt(2 * dof)


def test_vae_log_densities_finite_for_sampled_latents():
    model = GaussianVAE(d_x=10, d_z=4)
    params = model.init_params(11)
    rng = rng_stream(11, 3)
    x, _ = model.sample_joint(params, 3, rng)
    view = params.as_dict()
    zs, lq_drawn = model.sample_q(view, x, _batch_noise(model, rng, 3, 5))
    lq = np.asarray(model.log_q(view, x, zs))
    assert np.all(np.isfinite(np.asarray(model.log_joint(view, x, zs))))
    assert np.all(np.isfinite(lq))
    np.testing.assert_array_equal(lq_drawn, lq)


def test_bernoulli_models_reject_non_binary_observations():
    model = SigmoidBeliefNet(d_x=4, d_z=3)
    params = model.init_params(0)
    zs = np.zeros((1, 1, 2, 3))
    with pytest.raises(DomainError):
        model.log_joint(params.as_dict(), np.array([[0.5, 0, 1, 0]]), zs)
    toy = ToyBernoulli(m=2, d_x=2)
    tparams = toy.init_params(0)
    with pytest.raises(DomainError):
        toy.log_joint(tparams.as_dict(), np.array([[2.0, 0.0]]), np.zeros((1, 1), dtype=np.int64))


@pytest.mark.parametrize("seed", range(8))
def test_conjugate_gaussian_analytic_g_nondecreasing(seed):
    model, params, x = random_conjugate_gaussian(seed + 100)
    g = model.analytic_g(params, x, np.linspace(0, 1, 100))
    assert np.all(np.diff(g) >= -1e-12)


def test_sbn_output_bias_uses_clamped_logit():
    model = SigmoidBeliefNet(d_x=4, d_z=2)
    model.set_data_mean(np.array([0.0, 0.5, 1.0, 0.25]))
    assert np.all(np.isfinite(model.x_bias))
    lo = np.log((1 / 784) / (1 - 1 / 784))
    assert model.x_bias[0] == pytest.approx(lo, abs=1e-12)
    assert model.x_bias[1] == pytest.approx(0.0, abs=1e-12)
    assert model.x_bias[2] == pytest.approx(-lo, abs=1e-12)


# checkpoint format -----------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model, params = random_toy(3, m=2, d_x=1)
    ck = tmp_path / "model.tvom"
    save_checkpoint(ck, params)
    restored = restore_params(params.with_vector(np.zeros(params.size)), load_checkpoint(ck))
    np.testing.assert_array_equal(restored.vector, params.vector)


def test_checkpoint_header_layout(tmp_path):
    params = models.ParamVector.build({"theta/a": np.array([1.5, -2.0])})
    ck = tmp_path / "h.tvom"
    save_checkpoint(ck, params)
    blob = ck.read_bytes()
    assert blob[:4] == b"TVOM"
    assert int.from_bytes(blob[4:8], "little") == 1
    name_len = int.from_bytes(blob[8:12], "little")
    assert blob[12:12 + name_len].decode() == "theta/a"
    count = int.from_bytes(blob[12 + name_len:20 + name_len], "little")
    assert count == 2
    np.testing.assert_array_equal(np.frombuffer(blob, "<f8", count=2, offset=20 + name_len),
                                  [1.5, -2.0])


def test_checkpoint_rejects_bad_magic(tmp_path):
    bad = tmp_path / "bad.tvom"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="byte 0"):
        load_checkpoint(bad)


def test_checkpoint_rejects_truncation(tmp_path):
    model, params = random_toy(3, m=2, d_x=1)
    ck = tmp_path / "t.tvom"
    save_checkpoint(ck, params)
    blob = ck.read_bytes()
    (tmp_path / "trunc.tvom").write_bytes(blob[:-4])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(tmp_path / "trunc.tvom")


def test_checkpoint_rejects_non_utf8_segment_name(tmp_path):
    params = models.ParamVector.build({"theta/a": np.array([1.5, -2.0])})
    ck = tmp_path / "n.tvom"
    save_checkpoint(ck, params)
    blob = ck.read_bytes()
    (tmp_path / "bad.tvom").write_bytes(blob[:12] + b"\xff\xfe" + blob[14:])
    with pytest.raises(FormatError, match="byte 12 is not UTF-8"):
        load_checkpoint(tmp_path / "bad.tvom")


def test_restore_rejects_segments_the_model_lacks(tmp_path):
    deep = SigmoidBeliefNet(d_x=8, d_z=4, layers=3)
    ck = tmp_path / "deep.tvom"
    save_checkpoint(ck, deep.init_params(0))
    shallow = SigmoidBeliefNet(d_x=8, d_z=4, layers=2).init_params(0)
    with pytest.raises(FormatError, match="segment theta/dec2.w is not in the model"):
        restore_params(shallow, load_checkpoint(ck))
