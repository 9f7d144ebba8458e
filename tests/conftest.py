import numpy as np
import pytest

from tvo import estimators, util


def mc_mean_se(draw_fn, n_draws):
    """Mean and per-coordinate standard error over independent estimator draws.

    draw_fn(i) returns one gradient vector; draws are independent, so the
    standard error of the mean is std / sqrt(n).
    """
    draws = np.stack([draw_fn(i) for i in range(n_draws)])
    return draws.mean(axis=0), draws.std(axis=0, ddof=1) / np.sqrt(n_draws)


def force_lanes(monkeypatch, lanes):
    """Sets util.LANES to `lanes`, whatever the host's CPU count; two lanes
    (the caller plus the second lane) then pair blocks of any size."""
    monkeypatch.setattr(util, "LANES", lanes)
    monkeypatch.setattr(estimators, "PAIR", 0)


def each_lane_count(monkeypatch):
    """Runs the loop body on one lane (serial) and then on two, yielding each count."""
    for lanes in (1, 2):
        force_lanes(monkeypatch, lanes)
        yield lanes


@pytest.fixture
def serial(monkeypatch):
    """serial(fn) is fn() on one lane, whatever the test's lane count."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(util, "LANES", 1)
            return fn()
    return run
