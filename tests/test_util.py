import json

import numpy as np
import pytest

from tvo import autodiff as ad
from tvo import util


def test_logsumexp_matches_naive_on_moderate_values():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(3, 5)) * 3
    naive = np.log(np.exp(v).sum(axis=1))
    np.testing.assert_allclose(ad.logsumexp(v, axis=1), naive, rtol=1e-12)


def test_logsumexp_survives_extreme_magnitudes():
    assert ad.logsumexp(np.array([-2000.0, -2000.0])) == pytest.approx(-2000.0 + np.log(2))
    assert ad.logsumexp(np.array([800.0, 700.0])) == pytest.approx(800.0, abs=1e-10)


def test_logsumexp_keeps_all_inf_rows_at_inf():
    v = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
    out = ad.logsumexp(v, axis=1)
    assert out[0] == -np.inf and out[1] == 0.0


def test_log_sigmoid_tails_do_not_overflow():
    v = np.array([-800.0, 0.0, 800.0])
    out = util.log_sigmoid(v)
    assert out[0] == pytest.approx(-800.0)
    assert out[1] == pytest.approx(np.log(0.5))
    assert out[2] == pytest.approx(0.0, abs=1e-12)


def test_sigmoid_tails_do_not_overflow():
    v = np.array([-800.0, -3.0, 0.0, 3.0, 800.0, -np.inf, np.inf])
    with np.errstate(over="raise"):
        out = util.sigmoid(v)
    np.testing.assert_allclose(out[1:4], 1.0 / (1.0 + np.exp(-v[1:4])), rtol=1e-15)
    np.testing.assert_array_equal(out[[0, 2, 4, 5, 6]], [0.0, 0.5, 1.0, 0.0, 1.0])


def _where_sigmoid(v):
    # the np.where formulation util.sigmoid must reproduce bit for bit
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


@pytest.mark.parametrize("v", [
    np.random.default_rng(3).uniform(-1e3, 1e3, size=(4, 5, 6)),
    np.random.default_rng(4).normal(size=200) * 5.0,
    np.array(0.7), np.array(-2.5), -0.0,
    np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310, 745.0, -745.0]),
], ids=["uniform-1e3", "normal", "0d-pos", "0d-neg", "neg-zero-scalar", "specials"])
def test_sigmoid_is_bit_identical_to_the_where_form(v):
    got, want = util.sigmoid(v), _where_sigmoid(v)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def test_sigmoid_leaves_its_input_unchanged():
    v = np.random.default_rng(5).normal(size=50)
    before = v.copy()
    util.sigmoid(v)
    np.testing.assert_array_equal(v, before)


def test_effective_sample_size_bounds():
    uniform = np.full(8, 1.0 / 8)
    assert util.effective_sample_size(uniform) == pytest.approx(8.0)
    degenerate = np.array([1.0, 0.0, 0.0])
    assert util.effective_sample_size(degenerate) == pytest.approx(1.0)


def test_rng_stream_distinct_and_reproducible():
    a1 = util.rng_stream(3, 1).normal(size=4)
    a2 = util.rng_stream(3, 1).normal(size=4)
    b = util.rng_stream(3, 2).normal(size=4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    with pytest.raises(ValueError):
        util.rng_stream(-1)


def test_csv_and_jsonl_round_trip(tmp_path):
    header = ["name", "value", "note"]
    rows = [("a", 0.1, None), ("b", -2.5, "x")]
    util.write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_text() == "name,value,note\na,0.1,\nb,-2.5,x\n"
    assert not (tmp_path / "t.jsonl").exists()
    util.write_csv(tmp_path / "t.csv", header, rows, jsonl=True)
    records = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert records[0] == {"name": "a", "value": 0.1, "note": None}
