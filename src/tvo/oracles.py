"""Independent ground truth: exhaustive enumeration over small discrete state
spaces, quadrature checks of the evidence identity, and the variance identity
for the path integrand. Everything here is deliberately written against the
definitions (sums over states, trapezoid rule, central differences) rather
than against the estimators it is used to check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamVector
from .errors import DomainError
from .models import ConjugateGaussian, ToyBernoulli
from .util import softmax


@dataclass
class EnumerationResult:
    """Exact log-densities of one observation over all 2^M latent states."""

    log_joint: np.ndarray   # (Z,)
    log_q: np.ndarray       # (Z,)

    @property
    def log_evidence(self) -> float:
        return float(ad.logsumexp(self.log_joint))

    @property
    def posterior(self) -> np.ndarray:
        return softmax(self.log_joint)

    @property
    def u(self) -> np.ndarray:
        """U'(z) per state."""
        return self.log_joint - self.log_q

    def path_weights(self, betas) -> np.ndarray:
        """Exact pi_beta over states for each beta; shape (len(betas), Z)."""
        betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
        logits = betas[:, None] * self.log_joint[None, :] + (1.0 - betas)[:, None] * self.log_q[None, :]
        return softmax(logits, axis=-1)

    def g(self, betas):
        """Exact integrand E_pi_beta[U'] on a grid."""
        out = self.path_weights(betas) @ self.u
        return float(out[0]) if np.isscalar(betas) or np.ndim(betas) == 0 else out

    def var_u(self, betas):
        """Exact Var_pi_beta[U']."""
        w = self.path_weights(betas)
        mean = w @ self.u
        out = w @ (self.u ** 2) - mean ** 2
        return float(out[0]) if np.isscalar(betas) or np.ndim(betas) == 0 else out

    def expectation(self, beta, f_states) -> float:
        return float(self.path_weights(beta)[0] @ np.asarray(f_states, dtype=np.float64))

    def elbo(self) -> float:
        """Definitional sum under q, an independent route to g(0)."""
        return float(np.exp(self.log_q) @ self.u)

    def eubo(self) -> float:
        """Definitional sum under the posterior, an independent route to g(1)."""
        return float(self.posterior @ self.u)


def enumerate_states(model: ToyBernoulli, params: ParamVector, x) -> EnumerationResult:
    """Exact enumeration over all latent states for one observation."""
    if model.m > 12:
        raise DomainError("enumeration is guarded at M <= 12 states")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[0] != 1:
        raise DomainError("enumeration works one observation at a time")
    z = model.all_states()[None, :]
    view = params.as_dict()
    lj = np.asarray(model.log_joint(view, x, z))[0]
    lq = np.asarray(model.log_q(view, x, z))[0]
    return EnumerationResult(lj, lq)


def exact_objective(model: ToyBernoulli, params, x, schedule, kind="tvo_lower") -> float:
    """Exact objective value via enumeration: Riemann sums of the exact integrand.
    The ELBO and the EUBO are the tvo_lower and tvo_upper sums on K = 1."""
    enum = enumerate_states(model, params, x)
    betas = schedule.betas
    g = enum.g(betas)
    widths = schedule.widths
    if kind == "tvo_lower":
        return float(widths @ g[:-1])
    if kind == "tvo_upper":
        return float(widths @ g[1:])
    raise DomainError(f"unknown exact objective kind {kind!r}")


def exact_objective_gradient(model, params, x, schedule, kind="tvo_lower", h=1e-6) -> np.ndarray:
    """Gradient of an exact objective by central differences over enumeration."""

    def evaluate(vec):
        return exact_objective(model, params.with_vector(vec), x, schedule, kind)

    return ad.finite_difference_gradient(evaluate, params.vector, h=h)


def exact_expectation_gradient(model, params, x, beta, h=1e-6) -> np.ndarray:
    """Gradient of the exact E_pi_beta[U'] by central differences over enumeration."""

    def evaluate(vec):
        return enumerate_states(model, params.with_vector(vec), x).g(float(beta))

    return ad.finite_difference_gradient(evaluate, params.vector, h=h)


def gradient_lemma_gap(model: ToyBernoulli, params, x, beta) -> float:
    """Max |d log Z_beta - E_pi_beta[d log pi~_beta]| over parameter coordinates.

    Both sides are exact: the left differentiates the enumerated normalizer,
    the right averages per-state score vectors under the exact path weights.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z = model.all_states()[None, :]
    enum = enumerate_states(model, params, x)
    weights = enum.path_weights(float(beta))[0]

    def log_path(view):
        lj = model.log_joint(view, x, z)
        lq = model.log_q(view, x, z)
        return ad.add(ad.mul(float(beta), lj), ad.mul(1.0 - float(beta), lq))

    _, lhs = ad.value_and_grad(lambda view: ad.logsumexp(log_path(view)), params)
    _, rhs = ad.value_and_grad(lambda view: ad.tsum(ad.mul(weights[None, :], log_path(view))), params)
    return float(np.max(np.abs(lhs - rhs)))


def ti_identity_check(g_evaluator, log_evidence, grid_size) -> float:
    """|trapezoid(g, uniform grid) - log evidence|.

    g_evaluator must be exact (enumeration or closed form); the residual then
    vanishes as the grid refines.
    """
    if grid_size < 2:
        raise DomainError("need at least 2 grid points for the trapezoid rule")
    grid = np.linspace(0.0, 1.0, int(grid_size))
    values = np.asarray(g_evaluator(grid), dtype=np.float64)
    integral = np.trapezoid(values, grid)
    return float(abs(integral - log_evidence))


def variance_identity_check(g_evaluator, var_evaluator, beta, h=1e-5):
    """Centered difference of g at beta next to the exact Var_pi_beta[U']."""
    if not h < beta < 1.0 - h:
        raise DomainError(f"beta must lie in (h, 1-h); got beta={beta}, h={h}")
    lo, hi = g_evaluator(np.array([beta - h, beta + h]))
    fd = (hi - lo) / (2.0 * h)
    return float(fd), float(var_evaluator(beta))


# ---------------------------------------------------------------------------
# dense-grid quadrature for the scalar Gaussian model: a second, slower route
# to the same closed forms, for oracle-vs-oracle cross checks


def gaussian_grid_reference(model: ConjugateGaussian, params, x, betas, n_grid=200_001, span=12.0):
    """g(beta) and Var[U'] for the scalar Gaussian model by brute-force
    quadrature over a dense z grid (no closed forms involved)."""
    mu0 = float(params.get("theta/prior_mean"))
    s0 = np.exp(float(params.get("theta/prior_log_std")))
    sl = np.exp(float(params.get("theta/lik_log_std")))
    a = float(params.get("phi/q_slope"))
    b = float(params.get("phi/q_bias"))
    sq = np.exp(float(params.get("phi/q_log_std")))
    centers = [mu0, a * x + b, x]
    width = span * max(s0, sl, sq)
    z = np.linspace(min(centers) - width, max(centers) + width, n_grid)

    def log_normal(v, mean, std):
        return -0.5 * np.log(2.0 * np.pi) - np.log(std) - 0.5 * ((v - mean) / std) ** 2

    lj = log_normal(z, mu0, s0) + log_normal(x, z, sl)
    lq = log_normal(z, a * x + b, sq)
    u = lj - lq
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    g = np.empty_like(betas)
    var = np.empty_like(betas)
    for i, beta in enumerate(betas):
        logits = beta * lj + (1.0 - beta) * lq
        w = np.exp(logits - logits.max())
        w /= np.trapezoid(w, z)
        mean = np.trapezoid(w * u, z)
        g[i] = mean
        var[i] = np.trapezoid(w * (u - mean) ** 2, z)
    log_evidence = float(ad.logsumexp(lj + np.log(z[1] - z[0])))
    return g, var, log_evidence
