"""Latent-variable models: two exactly solvable oracle targets and the two
deep generative models (a discrete sigmoid belief net and a Gaussian VAE).

Conventions shared by every model:
  * x is a batch of observations with shape (B, D_x);
  * z is a batch of latent samples with shape (B, S, ...), model specific;
  * log_joint / log_q take a parameter view (name -> array or Var) and return
    a (B, S) array, or Var when any parameter is lifted onto a tape;
  * noise_blocks(rng, B, S, step) yields (items, noise) for consecutive
    blocks of `step` items, each block a fresh array with leading dims
    (n, S), drawn only when it is reached. A block's numbers do not depend
    on `step`: one block of all B items is the whole batch's draw in stream
    order. A model whose noise is item-major implements draw_noise(rng, n, S),
    the next n items' noise, and inherits noise_blocks;
  * sample_q(view, x, noise) runs the inference network once and returns
    (z, log q(z|x)) from the same logits or moments. z is a plain array even
    on a lifted view, so score-function estimators stay score-function
    estimators; log q is then a Var. Models with float latents write z over
    the noise in place. log_q re-scores a given z;
  * reparam_sample(view, x, eps), for a location-scale q, returns the same
    pair with z taped as a function of the view. A model is pathwise (the
    reparameterization estimator applies) exactly when it defines it;
  * generative parameters live under "theta/", inference parameters under
    "phi/".
"""
from __future__ import annotations

import struct

import numpy as np

from . import autodiff as ad
from .autodiff import ParamVector, value_of
from .errors import DomainError, FormatError, ShapeError
from .util import rng_stream, sigmoid, softmax

LOG_2PI = float(np.log(2.0 * np.pi))


class LatentModel:
    """Contract shared by all models; see the module docstring for shapes, for
    the noise methods and for how sample_q, or reparam_sample on a pathwise
    model, turns noise into (z, log q). estimators.score_blocks is the one
    loop that does so. Noise has two
    hooks: a model whose noise is item-major implements draw_noise and
    inherits noise_blocks; any other layout overrides noise_blocks."""

    def init_params(self, seed) -> ParamVector:
        raise NotImplementedError

    def log_joint(self, view, x, z):
        raise NotImplementedError

    def log_q(self, view, x, z):
        raise NotImplementedError

    def draw_noise(self, rng, n, S):
        """The next n items' noise for S samples each, from rng."""
        raise NotImplementedError

    def noise_blocks(self, rng, B, S, step):
        """(items, noise) per block of `step` items. An item-major layout
        draws its blocks one after another from rng."""
        for i in range(0, B, step):
            items = slice(i, min(i + step, B))
            yield items, self.draw_noise(rng, items.stop - i, S)

    def sample_q(self, view, x, noise):
        raise NotImplementedError

    def sample_joint(self, params, n, rng):
        raise NotImplementedError


def _check_binary(x):
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x == 0.0) | (x == 1.0)):
        raise DomainError("Bernoulli likelihood requires binary observations")
    return x


def bits_to_index(bits) -> np.ndarray:
    bits = np.asarray(bits)
    weights = (1 << np.arange(bits.shape[-1])).astype(np.int64)
    return (bits.astype(np.int64) * weights).sum(axis=-1)

def index_to_bits(idx, width) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    return ((idx[..., None] >> np.arange(width)) & 1).astype(np.float64)


def _log_normal(v, mean, log_std):
    """log N(v | mean, exp(log_std)^2), elementwise."""
    delta = ad.sub(v, mean)
    scaled = ad.mul(delta, ad.exp(ad.neg(log_std)))
    return ad.sub(ad.mul(ad.mul(scaled, scaled), -0.5), ad.add(0.5 * LOG_2PI, log_std))


def _glorot(rng, fan_in, fan_out):
    """Glorot-uniform (fan_in, fan_out) weights drawn from rng."""
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out))


def _categorical_rows(prob_rows, u):
    """Indices drawn from per-row categorical distributions by inverse CDF.

    prob_rows: (B, Z) probabilities per row; u: uniforms of shape (B, ...);
    returns an int64 array shaped like u.
    """
    cum = np.cumsum(prob_rows, axis=-1)
    cum[..., -1] = 1.0
    return (u[..., None] >= cum[:, None, :]).sum(axis=-1).astype(np.int64)


# ---------------------------------------------------------------------------
# ToyBernoulli: fully tabular, enumerable in 2^M states


class ToyBernoulli(LatentModel):
    """Tabular discrete model with M binary latents and D_x binary observables.

    All three distributions (prior over latent states, per-state likelihood,
    per-observation proposal) are free softmax tables, so normalization is
    exact by construction and the proposal can represent any posterior.
    """

    def __init__(self, m=2, d_x=1):
        if m < 1 or m > 12:
            raise DomainError(f"M must be in [1, 12] for enumerability, got {m}")
        if d_x < 1 or d_x > 8:
            raise DomainError(f"D_x must be in [1, 8], got {d_x}")
        self.m = m
        self.d_x = d_x
        self.n_z = 1 << m
        self.n_x = 1 << d_x

    def init_params(self, seed) -> ParamVector:
        return self._tables(rng_stream(seed, 11), 0.5)

    def _tables(self, rng, scale) -> ParamVector:
        """The three softmax tables, scale * standard normal draws from rng."""
        return ParamVector.build({
            "theta/prior": scale * rng.normal(size=(self.n_z,)),
            "theta/likelihood": scale * rng.normal(size=(self.n_z, self.n_x)),
            "phi/proposal": scale * rng.normal(size=(self.n_x, self.n_z)),
        })

    def all_states(self) -> np.ndarray:
        return np.arange(self.n_z, dtype=np.int64)

    def _x_index(self, x) -> np.ndarray:
        x = _check_binary(x)
        if x.ndim != 2 or x.shape[1] != self.d_x:
            raise ShapeError(f"x must have shape (B, {self.d_x})")
        return bits_to_index(x)

    def log_joint(self, view, x, z):
        x_idx = self._x_index(x)
        z = np.asarray(z, dtype=np.int64)
        lp_z = ad.gather(ad.log_softmax(view["theta/prior"], axis=-1), z)
        lik = ad.log_softmax(view["theta/likelihood"], axis=-1)
        flat = ad.reshape(lik, (self.n_z * self.n_x,))
        lp_x = ad.gather(flat, z * self.n_x + x_idx[:, None])
        return ad.add(lp_z, lp_x)

    def log_q(self, view, x, z):
        x_idx = self._x_index(x)
        z = np.asarray(z, dtype=np.int64)
        prop = ad.log_softmax(view["phi/proposal"], axis=-1)
        flat = ad.reshape(prop, (self.n_x * self.n_z,))
        return ad.gather(flat, x_idx[:, None] * self.n_z + z)

    def draw_noise(self, rng, n, S):
        return rng.random((n, S))

    def sample_q(self, view, x, noise):
        z = _categorical_rows(softmax(value_of(view["phi/proposal"]), axis=-1)[self._x_index(x)], noise)
        return z, self.log_q(view, x, z)

    def sample_joint(self, params, n, rng):
        prior = softmax(params.get("theta/prior"), axis=-1)
        cum = np.cumsum(prior)
        cum[-1] = 1.0
        z = np.searchsorted(cum, rng.random(n), side="right").astype(np.int64)
        lik = softmax(params.get("theta/likelihood"), axis=-1)[z]
        x_idx = _categorical_rows(lik, rng.random((n, 1)))[:, 0]
        return index_to_bits(x_idx, self.d_x), z

    # oracle plumbing -------------------------------------------------------

    def state_tables(self, params):
        """(log prior, per-state log likelihood rows, per-x log proposal rows)."""
        return (ad.log_softmax(params.get("theta/prior"), axis=-1),
                ad.log_softmax(params.get("theta/likelihood"), axis=-1),
                ad.log_softmax(params.get("phi/proposal"), axis=-1))

    def posterior_proposal(self, params) -> ParamVector:
        """Params with the proposal table replaced by the exact posterior."""
        lp_z, lp_x_given_z, _ = self.state_tables(params)
        joint = lp_z[:, None] + lp_x_given_z  # (Z, X)
        post = ad.log_softmax(joint.T, axis=-1)  # (X, Z), per-observation posterior
        return params.replace(**{"phi/proposal": post})


def random_toy(seed, m=2, d_x=1, scale=1.0) -> tuple[ToyBernoulli, ParamVector]:
    model = ToyBernoulli(m=m, d_x=d_x)
    return model, model._tables(rng_stream(seed, 13), scale)


# ---------------------------------------------------------------------------
# ConjugateGaussian: scalar Gaussian prior/likelihood with Gaussian proposal


class ConjugateGaussian(LatentModel):
    """z ~ N(mu0, s0^2), x | z ~ N(z, sl^2), q(z|x) = N(a x + b, sq^2).

    The geometric path stays Gaussian for every beta, so the integrand, its
    variance, the evidence, and all objective gradients have closed forms.
    """

    def init_params(self, seed) -> ParamVector:
        rng = rng_stream(seed, 17)
        return ParamVector.build({
            "theta/prior_mean": rng.normal() * 0.5,
            "theta/prior_log_std": rng.normal() * 0.2,
            "theta/lik_log_std": rng.normal() * 0.2,
            "phi/q_slope": 0.3 + 0.2 * rng.normal(),
            "phi/q_bias": rng.normal() * 0.3,
            "phi/q_log_std": rng.normal() * 0.2,
        })

    @staticmethod
    def _shape_x(x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != 1:
            raise ShapeError("x must have shape (B, 1)")
        return x

    def log_joint(self, view, x, z):
        x = self._shape_x(x)
        lp_z = _log_normal(z, view["theta/prior_mean"], view["theta/prior_log_std"])
        lp_x = _log_normal(x, z, view["theta/lik_log_std"])
        return ad.add(lp_z, lp_x)

    def q_mean_log_std(self, view, x):
        x = self._shape_x(x)
        return ad.add(ad.mul(view["phi/q_slope"], x), view["phi/q_bias"]), view["phi/q_log_std"]

    def log_q(self, view, x, z):
        mean, log_std = self.q_mean_log_std(view, x)
        return _log_normal(z, mean, log_std)

    def draw_noise(self, rng, n, S):
        return rng.standard_normal((n, S))

    def sample_q(self, view, x, noise):
        """Scales and shifts the normals in place: the returned z is `noise`."""
        mean, log_std = self.q_mean_log_std(view, x)
        z = np.multiply(np.exp(value_of(log_std)), noise, out=noise)
        z += value_of(mean)
        return z, _log_normal(z, mean, log_std)

    def reparam_sample(self, view, x, eps):
        mean, log_std = self.q_mean_log_std(view, x)
        z = ad.add(mean, ad.mul(ad.exp(log_std), eps))
        return z, _log_normal(z, mean, log_std)

    def sample_joint(self, params, n, rng):
        mu0 = float(params.get("theta/prior_mean"))
        s0 = np.exp(float(params.get("theta/prior_log_std")))
        sl = np.exp(float(params.get("theta/lik_log_std")))
        z = mu0 + s0 * rng.normal(size=n)
        x = z + sl * rng.normal(size=n)
        return x[:, None], z

    # closed forms ----------------------------------------------------------

    def _constants(self, params, x):
        mu0 = float(params.get("theta/prior_mean"))
        v0 = np.exp(2.0 * float(params.get("theta/prior_log_std")))
        vl = np.exp(2.0 * float(params.get("theta/lik_log_std")))
        mq = float(params.get("phi/q_slope")) * x + float(params.get("phi/q_bias"))
        vq = np.exp(2.0 * float(params.get("phi/q_log_std")))
        v_post = 1.0 / (1.0 / v0 + 1.0 / vl)
        mu_post = v_post * (mu0 / v0 + x / vl)
        return mu0, v0, vl, mq, vq, mu_post, v_post

    def analytic_log_evidence(self, params, x) -> float:
        mu0, v0, vl, *_ = self._constants(params, x)
        v = v0 + vl
        return float(-0.5 * LOG_2PI - 0.5 * np.log(v) - 0.5 * (x - mu0) ** 2 / v)

    def _path_moments(self, params, x, betas):
        """(mq, vq, mu_post, v_post, variance, mean) of the Gaussian pi_beta,
        whose precision interpolates the posterior's and the proposal's."""
        betas = np.asarray(betas, dtype=np.float64)
        _, _, _, mq, vq, mu_post, v_post = self._constants(params, x)
        v_b = 1.0 / (betas / v_post + (1.0 - betas) / vq)
        return mq, vq, mu_post, v_post, v_b, v_b * (betas * mu_post / v_post + (1.0 - betas) * mq / vq)

    def analytic_g(self, params, x, betas):
        """Closed-form g(beta) = E_pi_beta[U'] on a beta grid; U' is quadratic
        in z, so the expectation only needs pi_beta's first two moments."""
        mq, vq, mu_post, v_post, v_b, m_b = self._path_moments(params, x, betas)
        log_p = self.analytic_log_evidence(params, x)
        e_post = -0.5 * (LOG_2PI + np.log(v_post)) - (v_b + (m_b - mu_post) ** 2) / (2.0 * v_post)
        e_q = -0.5 * (LOG_2PI + np.log(vq)) - (v_b + (m_b - mq) ** 2) / (2.0 * vq)
        out = log_p + e_post - e_q
        return float(out) if out.ndim == 0 else out

    def analytic_var_u(self, params, x, betas):
        """Var_pi_beta[U'] in closed form (variance of a Gaussian quadratic)."""
        mq, vq, mu_post, v_post, v_b, m_b = self._path_moments(params, x, betas)
        alpha = 0.5 * (1.0 / vq - 1.0 / v_post)
        gamma = mu_post / v_post - mq / vq
        out = 2.0 * alpha ** 2 * v_b ** 2 + v_b * (2.0 * alpha * m_b + gamma) ** 2
        return float(out) if out.ndim == 0 else out

    def kl_q_posterior(self, params, x) -> float:
        _, _, _, mq, vq, mu_post, v_post = self._constants(params, x)
        return float(0.5 * (vq / v_post + (mq - mu_post) ** 2 / v_post - 1.0 + np.log(v_post / vq)))

    def kl_posterior_q(self, params, x) -> float:
        _, _, _, mq, vq, mu_post, v_post = self._constants(params, x)
        return float(0.5 * (v_post / vq + (mq - mu_post) ** 2 / vq - 1.0 + np.log(vq / v_post)))

    def analytic_elbo(self, params, x) -> float:
        return self.analytic_log_evidence(params, x) - self.kl_q_posterior(params, x)

    def analytic_eubo(self, params, x) -> float:
        return self.analytic_log_evidence(params, x) + self.kl_posterior_q(params, x)

    def analytic_elbo_gradient(self, params, x) -> np.ndarray:
        """d ELBO / d(every parameter), aligned with the flat vector."""
        mu0, v0, vl, mq, vq, mu_post, v_post = self._constants(params, x)
        sq2 = vq
        grads = {
            "theta/prior_mean": (mq - mu0) / v0,
            "theta/prior_log_std": -1.0 + (sq2 + (mq - mu0) ** 2) / v0,
            "theta/lik_log_std": -1.0 + (sq2 + (x - mq) ** 2) / vl,
            "phi/q_slope": -x * (mq - mu_post) / v_post,
            "phi/q_bias": -(mq - mu_post) / v_post,
            "phi/q_log_std": 1.0 - sq2 / v_post,
        }
        out = np.zeros(params.size)
        for name, val in grads.items():
            out[params.mask(name)] = val
        return out

    def analytic_sleep_gradient(self, params) -> np.ndarray:
        """d E_{p(x,z)}[-log q(z|x)] / d(phi), the inference-compilation target."""
        mu0, v0, vl, _, vq, _, _ = self._constants(params, 0.0)
        a, b = float(params.get("phi/q_slope")), float(params.get("phi/q_bias"))
        resid = mu0 * (1.0 - a) - b
        k = (1.0 - a) ** 2 * v0 + a ** 2 * vl + resid ** 2
        grads = {
            "phi/q_slope": (-(1.0 - a) * v0 + a * vl - mu0 * resid) / vq,
            "phi/q_bias": -resid / vq,
            "phi/q_log_std": 1.0 - k / vq,
        }
        out = np.zeros(params.size)
        for name, val in grads.items():
            out[params.mask(name)] = val
        return out


def random_conjugate_gaussian(seed) -> tuple[ConjugateGaussian, ParamVector, float]:
    """Seeded instance plus one observation x; proposal deliberately off-posterior."""
    model = ConjugateGaussian()
    rng = rng_stream(seed, 19)
    params = ParamVector.build({
        "theta/prior_mean": rng.uniform(-1.0, 1.0),
        "theta/prior_log_std": rng.uniform(-0.5, 0.4),
        "theta/lik_log_std": rng.uniform(-0.5, 0.4),
        "phi/q_slope": rng.uniform(0.1, 0.9),
        "phi/q_bias": rng.uniform(-0.5, 0.5),
        "phi/q_log_std": rng.uniform(-0.6, 0.4),
    })
    x = float(rng.uniform(-1.5, 1.5))
    return model, params, x


# ---------------------------------------------------------------------------
# SigmoidBeliefNet: L layers of factorized Bernoulli latents


class SigmoidBeliefNet(LatentModel):
    """Discrete deep generative model with binary latent layers.

    Generative side factorizes top-down: a free-logit prior over the top
    layer, then per-layer Bernoulli conditionals, then a Bernoulli likelihood
    with a fixed output bias derived from the training-data mean. The
    inference network factorizes bottom-up with centered inputs.
    """

    def __init__(self, d_x=784, d_z=20, layers=2, nonlinear=False, x_mean=None):
        if layers < 1:
            raise DomainError("need at least one latent layer")
        self.d_x = d_x
        self.d_z = d_z
        self.layers = layers
        self.nonlinear = nonlinear
        self.set_data_mean(np.full(d_x, 0.5) if x_mean is None else x_mean)

    def set_data_mean(self, x_mean):
        x_mean = np.asarray(x_mean, dtype=np.float64)
        if x_mean.shape != (self.d_x,):
            raise ShapeError(f"x_mean must have shape ({self.d_x},)")
        clamped = np.clip(x_mean, 1.0 / 784.0, 1.0 - 1.0 / 784.0)
        self.x_mean = x_mean
        self.x_bias = np.log(clamped / (1.0 - clamped))

    def _init_map(self, rng, named, prefix, d_in, d_out):
        if self.nonlinear:
            named[prefix + ".w1"] = _glorot(rng, d_in, self.d_z)
            named[prefix + ".b1"] = np.zeros(self.d_z)
            named[prefix + ".w2"] = _glorot(rng, self.d_z, self.d_z)
            named[prefix + ".b2"] = np.zeros(self.d_z)
            named[prefix + ".w3"] = _glorot(rng, self.d_z, d_out)
            named[prefix + ".b3"] = np.zeros(d_out)
        else:
            named[prefix + ".w"] = _glorot(rng, d_in, d_out)
            named[prefix + ".b"] = np.zeros(d_out)

    def init_params(self, seed) -> ParamVector:
        rng = rng_stream(seed, 23)
        named = {"theta/prior": np.zeros(self.d_z)}
        for ell in range(self.layers - 1, 0, -1):
            self._init_map(rng, named, f"theta/dec{ell}", self.d_z, self.d_z)
        self._init_map(rng, named, "theta/decx", self.d_z, self.d_x)
        self._init_map(rng, named, "phi/enc1", self.d_x, self.d_z)
        for ell in range(2, self.layers + 1):
            self._init_map(rng, named, f"phi/enc{ell}", self.d_z, self.d_z)
        return ParamVector.build(named)

    def _apply_map(self, view, prefix, inp):
        """Affine (or 3-layer tanh) map over the last axis of `inp`."""
        shape = value_of(inp).shape
        flat = ad.reshape(inp, (-1, shape[-1])) if len(shape) != 2 else inp
        if self.nonlinear:
            h = ad.tanh(ad.affine(flat, view[prefix + ".w1"], view[prefix + ".b1"]))
            h = ad.tanh(ad.affine(h, view[prefix + ".w2"], view[prefix + ".b2"]))
            out = ad.affine(h, view[prefix + ".w3"], view[prefix + ".b3"])
        else:
            out = ad.affine(flat, view[prefix + ".w"], view[prefix + ".b"])
        if len(shape) != 2:
            out = ad.reshape(out, shape[:-1] + (value_of(out).shape[-1],))
        return out

    def _check_z(self, z):
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 4 or z.shape[2] != self.layers or z.shape[3] != self.d_z:
            raise ShapeError(f"z must have shape (B, S, {self.layers}, {self.d_z})")
        if not np.all((z == 0.0) | (z == 1.0)):
            raise DomainError("latent samples must be binary")
        return z

    def log_joint(self, view, x, z):
        x = _check_binary(x)
        z = self._check_z(z)
        top = z[:, :, self.layers - 1, :]
        total = ad.bernoulli_logpmf(top, view["theta/prior"])
        for ell in range(self.layers - 1, 0, -1):
            logits = self._apply_map(view, f"theta/dec{ell}", 2.0 * z[:, :, ell, :] - 1.0)
            total = ad.add(total, ad.bernoulli_logpmf(z[:, :, ell - 1, :], logits))
        logits_x = ad.add(self._apply_map(view, "theta/decx", 2.0 * z[:, :, 0, :] - 1.0), self.x_bias)
        return ad.add(total, ad.bernoulli_logpmf(x[:, None, :], logits_x))

    def _q_pass(self, view, x, z, draw):
        """log q(z|x), bottom-up. With `draw`, z holds uniforms and each
        layer is first set in place to u < sigmoid(logits), from the very
        logits that then score it."""
        logits = ad.reshape(self._apply_map(view, "phi/enc1", (x - self.x_mean + 1.0) / 2.0),
                            (x.shape[0], 1, self.d_z))
        total = None
        for ell in range(self.layers):
            if ell:
                logits = self._apply_map(view, f"phi/enc{ell + 1}", 2.0 * z[:, :, ell - 1, :] - 1.0)
            layer = z[:, :, ell, :]
            if draw:
                np.less(layer, sigmoid(value_of(logits)), out=layer)
            term = ad.bernoulli_logpmf(layer, logits)
            total = term if total is None else ad.add(total, term)
        return total

    def log_q(self, view, x, z):
        return self._q_pass(view, _check_binary(x), self._check_z(z), draw=False)

    def noise_blocks(self, rng, B, S, step):
        """The batch's stream is one (layers, B, S, d_z) draw of uniforms,
        seen as (B, S, layers, d_z). A one-block batch is that draw itself.
        Otherwise layer ell's start ell * B * S * d_z draws into it, so each
        layer fills its slice of every fresh (layers, n, S, d_z) block from
        its own generator, moved there once per batch."""
        if step >= B:
            yield slice(0, B), np.moveaxis(rng.random((self.layers, B, S, self.d_z)), 0, 2)
            return
        gens = [rng]
        for ell in range(1, self.layers):
            bits = type(rng.bit_generator)(0)
            bits.state = rng.bit_generator.state
            bits.advance(ell * B * S * self.d_z)
            gens.append(np.random.Generator(bits))
        for i in range(0, B, step):
            items = slice(i, min(i + step, B))
            block = np.empty((self.layers, items.stop - i, S, self.d_z))
            for gen, layer in zip(gens, block):
                gen.random(out=layer)
            yield items, np.moveaxis(block, 0, 2)

    def sample_q(self, view, x, noise):
        """Thresholds the uniforms in place: the returned z is `noise`."""
        return noise, self._q_pass(view, _check_binary(x), noise, draw=True)

    def sample_joint(self, params, n, rng):
        """Ancestral draw of n items. The stream holds one (n, d_z) block of
        uniforms per latent layer, top first, and last the (n, d_x) block of
        x, each in row order. x is drawn in tiles of max(1, TILE // d_x) rows
        taken in row order from that last block, so its bits are those of one
        whole draw while one tile of logits, uniforms and probabilities is held."""
        view = params.as_dict()
        z = np.zeros((n, 1, self.layers, self.d_z))
        top_probs = sigmoid(view["theta/prior"])
        z[:, 0, self.layers - 1, :] = (rng.random((n, self.d_z)) < top_probs).astype(np.float64)
        for ell in range(self.layers - 1, 0, -1):
            logits = value_of(self._apply_map(view, f"theta/dec{ell}", 2.0 * z[:, :, ell, :] - 1.0))
            z[:, :, ell - 1, :] = (rng.random((n, 1, self.d_z)) < sigmoid(logits)).astype(np.float64)
        x = np.empty((n, self.d_x))
        step = max(1, ad.TILE // self.d_x)
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            logits = value_of(self._apply_map(view, "theta/decx", 2.0 * z[rows, 0, 0, :] - 1.0))
            logits += self.x_bias
            np.less(rng.random(logits.shape), sigmoid(logits), out=x[rows])
        return x, z[:, 0, :, :]


# ---------------------------------------------------------------------------
# GaussianVAE: continuous latents, Bernoulli likelihood


class GaussianVAE(LatentModel):
    """N(0, I) prior, 3-layer tanh decoder to Bernoulli logits, 2-layer tanh
    encoder trunk with separate linear heads for the mean and log std."""

    def __init__(self, d_x=784, d_z=20):
        self.d_x = d_x
        self.d_z = d_z

    def init_params(self, seed) -> ParamVector:
        rng = rng_stream(seed, 29)
        z, x = self.d_z, self.d_x
        return ParamVector.build({
            "theta/dec1.w": _glorot(rng, z, z), "theta/dec1.b": np.zeros(z),
            "theta/dec2.w": _glorot(rng, z, z), "theta/dec2.b": np.zeros(z),
            "theta/dec3.w": _glorot(rng, z, x), "theta/dec3.b": np.zeros(x),
            "phi/enc1.w": _glorot(rng, x, z), "phi/enc1.b": np.zeros(z),
            "phi/enc2.w": _glorot(rng, z, z), "phi/enc2.b": np.zeros(z),
            "phi/mean.w": _glorot(rng, z, z), "phi/mean.b": np.zeros(z),
            "phi/logstd.w": _glorot(rng, z, z), "phi/logstd.b": np.zeros(z),
        })

    def _check_z(self, z):
        if not isinstance(z, ad.Var):
            z = np.asarray(z, dtype=np.float64)
        if value_of(z).ndim != 3 or value_of(z).shape[2] != self.d_z:
            raise ShapeError(f"z must have shape (B, S, {self.d_z})")
        return z

    def decoder_logits(self, view, z):
        B, S, _ = value_of(z).shape
        flat = ad.reshape(z, (B * S, self.d_z))
        h = ad.tanh(ad.affine(flat, view["theta/dec1.w"], view["theta/dec1.b"]))
        h = ad.tanh(ad.affine(h, view["theta/dec2.w"], view["theta/dec2.b"]))
        out = ad.affine(h, view["theta/dec3.w"], view["theta/dec3.b"])
        return ad.reshape(out, (B, S, self.d_x))

    def q_mean_log_std(self, view, x):
        """Encoder mean and log std shaped (B, 1, d_z), to broadcast over samples."""
        x = _check_binary(x)
        h = ad.tanh(ad.affine(x, view["phi/enc1.w"], view["phi/enc1.b"]))
        h = ad.tanh(ad.affine(h, view["phi/enc2.w"], view["phi/enc2.b"]))
        mean = ad.affine(h, view["phi/mean.w"], view["phi/mean.b"])
        log_std = ad.affine(h, view["phi/logstd.w"], view["phi/logstd.b"])
        shape = (x.shape[0], 1, self.d_z)
        return ad.reshape(mean, shape), ad.reshape(log_std, shape)

    def log_joint(self, view, x, z):
        x = _check_binary(x)
        z = self._check_z(z)
        lp_z = ad.mul(ad.tsum(ad.add(ad.mul(z, z), LOG_2PI), axis=-1), -0.5)
        logits = self.decoder_logits(view, z)
        return ad.add(lp_z, ad.bernoulli_logpmf(x[:, None, :], logits))

    def log_q(self, view, x, z):
        z = self._check_z(z)
        mean, log_std = self.q_mean_log_std(view, x)
        return ad.tsum(_log_normal(z, mean, log_std), axis=-1)

    def draw_noise(self, rng, n, S):
        return rng.standard_normal((n, S, self.d_z))

    def sample_q(self, view, x, noise):
        """Scales and shifts the normals in place: the returned z is `noise`."""
        mean, log_std = self.q_mean_log_std(view, x)
        z = np.multiply(np.exp(value_of(log_std)), noise, out=noise)
        z += value_of(mean)
        return z, ad.tsum(_log_normal(z, mean, log_std), axis=-1)

    def reparam_sample(self, view, x, eps):
        mean, log_std = self.q_mean_log_std(view, x)
        z = ad.add(mean, ad.mul(ad.exp(log_std), eps))
        return z, ad.tsum(_log_normal(z, mean, log_std), axis=-1)

    def sample_joint(self, params, n, rng):
        view = params.as_dict()
        z = rng.normal(size=(n, 1, self.d_z))
        logits = value_of(self.decoder_logits(view, z))[:, 0, :]
        x = (rng.random((n, self.d_x)) < sigmoid(logits)).astype(np.float64)
        return x, z[:, 0, :]


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"TVOM"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: ParamVector) -> None:
    """Flat named-segment binary: magic "TVOM", u32 version, then per segment
    (u32 name length, name bytes, u64 element count, little-endian f64 data)."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name in params.names:
            data = params.get(name).ravel()
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", data.size))
            fh.write(data.astype("<f8").tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as name -> flat float64 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic at byte 0: {blob[:4]!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    out = {}
    offset = 8
    while offset < len(blob):
        if offset + 4 > len(blob):
            raise FormatError(f"truncated segment header at byte {offset}")
        (name_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + name_len + 8 > len(blob):
            raise FormatError(f"truncated segment name at byte {offset}")
        try:
            name = blob[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"segment name at byte {offset} is not UTF-8") from None
        offset += name_len
        (count,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise FormatError(f"truncated segment data at byte {offset}")
        out[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).astype(np.float64)
        offset += nbytes
    return out


def restore_params(params: ParamVector, loaded: dict) -> ParamVector:
    """ParamVector with values taken from a loaded checkpoint that holds
    exactly this model's segments."""
    extra = [name for name in loaded if name not in params.names]
    if extra:
        raise FormatError(f"checkpoint segment {extra[0]} is not in the model")
    updates = {}
    for name in params.names:
        if name not in loaded:
            raise FormatError(f"checkpoint is missing segment {name}")
        flat = loaded[name]
        shape = params.get(name).shape
        if flat.size != int(np.prod(shape) if shape else 1):
            raise FormatError(f"checkpoint segment {name} has {flat.size} elements")
        updates[name] = flat.reshape(shape)
    return params.replace(**updates)
