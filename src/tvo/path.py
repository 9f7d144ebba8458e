"""Geometric path between the inference network q and the joint model p.

The unnormalized path density interpolates log-linearly,
log pi~_beta(z) = beta * log p(x,z) + (1-beta) * log q(z|x), so the
derivative of the potential with respect to beta is the instantaneous
evidence bound U'(z) = log p(x,z) - log q(z|x), independent of beta.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ShapeError


@dataclass(frozen=True)
class PartitionSchedule:
    """Ordered inverse-temperature grid 0 = beta_0 < ... < beta_K = 1."""

    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 2:
            raise DomainError("a schedule needs at least the two endpoints")
        if betas[0] != 0.0 or betas[-1] != 1.0:
            raise DomainError("schedule must start at 0 and end at 1")
        if np.any(np.diff(betas) <= 0):
            raise DomainError("schedule knots must be strictly increasing")
        object.__setattr__(self, "betas", betas)

    @property
    def K(self) -> int:
        return self.betas.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.betas)


def make_schedule(K: int, beta1=None, spacing="equal") -> PartitionSchedule:
    """Equal spacing puts knots at k/K; log spacing puts beta_0 = 0 and then K
    knots in geometric progression from beta1 up to 1 inclusive."""
    if K < 1:
        raise DomainError(f"K must be at least 1, got {K}")
    if spacing == "equal":
        return PartitionSchedule(np.linspace(0.0, 1.0, K + 1))
    if spacing == "log":
        if K == 1:
            return PartitionSchedule(np.array([0.0, 1.0]))
        if beta1 is None or not 0.0 < beta1 < 1.0:
            raise DomainError(f"log spacing requires beta1 in (0, 1), got {beta1}")
        knots = np.concatenate([[0.0], np.geomspace(beta1, 1.0, K)])
        knots[-1] = 1.0
        return PartitionSchedule(knots)
    raise DomainError(f"unknown spacing {spacing!r}")


@dataclass
class IntegrandCurve:
    """Estimates of g(beta) = E_pi_beta[U'] on a grid, with optional standard errors."""

    betas: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray | None = None

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.betas.shape != self.values.shape:
            raise ShapeError("curve grid and values must align")
        if np.any(self.betas < 0) or np.any(self.betas > 1):
            raise DomainError("curve grid must lie inside [0, 1]")

    def beta_star(self) -> float:
        """Knot of maximum curvature: argmax of the discrete second difference.

        Diagnostic only; schedules are never set from it.
        """
        if self.betas.size < 3:
            raise DomainError("need at least 3 grid points for a second difference")
        second = np.diff(self.values, 2)
        return float(self.betas[1:-1][int(np.argmax(second))])

    COLUMNS = ("beta", "g_estimate", "std_error")  # the header of rows()

    def rows(self):
        se = self.std_errors if self.std_errors is not None else [None] * self.betas.size
        return [(b, v, s) for b, v, s in zip(self.betas, self.values, se)]


def integrand_curve(model, params, x, betas, S, seed) -> IntegrandCurve:
    """Monte Carlo curve of g(beta) over a grid, from one shared sample batch.

    One batch of S proposal samples per datum serves every grid point; only
    the tempered weights change along the grid. Standard errors use the
    self-normalized importance-sampling delta method, pooled over data items.
    The batch is streamed block by block (estimators.table_blocks), so
    neither its latents nor its (B, K+1, S) columns ever exist at once, and
    the result is the whole-table one bit for bit. A non-finite estimate at
    any knot raises NumericalError.
    """
    from .estimators import table_blocks  # deferred: estimators imports path

    parts = []
    for table in table_blocks(model, params, x, S, seed, betas):
        # delta method: sum_s (w_s^beta)^2 (U'(z_s) - g)^2, nan for a non-finite g
        dev = table.deviations(table.log_w, table.g)
        w2 = np.square(table.norm_w, out=table.norm_w)
        dev *= dev
        dev *= w2
        parts.append((table.g, dev.sum(axis=2)))
        del dev
    g, var = map(np.concatenate, zip(*parts))
    if not np.all(np.isfinite(g)):
        raise NumericalError("non-finite integrand estimate; weights degenerate on this grid")
    # averaged over contiguous per-knot rows, as np.mean reduces one knot's
    # estimates, so grid endpoints reproduce the mean ELBO/EUBO bit for bit
    values = np.ascontiguousarray(g.T).mean(axis=1)
    return IntegrandCurve(betas, values, np.sqrt(var.sum(axis=0)) / g.shape[0])
