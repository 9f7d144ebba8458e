import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvo import autodiff as ad
from tvo.errors import DomainError, NumericalError, ShapeError, UsageError


def scalar_tape(value):
    tape = ad.Tape()
    return tape, tape.leaf(np.array(value))


def test_forward_identity():
    _, a = scalar_tape(3.0)
    assert a.item() == 3.0


def test_forward_log_exp_inverse():
    _, a = scalar_tape(-2.5)
    out = ad.log(ad.exp(a))
    assert out.item() == pytest.approx(-2.5, abs=1e-15)


def test_forward_sigmoid_at_zero():
    _, a = scalar_tape(0.0)
    assert ad.sigmoid(a).item() == 0.5


def test_backward_square():
    _, a = scalar_tape(3.0)
    out = ad.mul(a, a)
    ad.backward(out)
    assert a.grad == pytest.approx(6.0, abs=1e-12)


def test_backward_product_rule():
    tape = ad.Tape()
    a = tape.leaf(np.array(2.0))
    b = tape.leaf(np.array(5.0))
    ad.backward(ad.mul(a, b))
    assert float(a.grad) == 5.0
    assert float(b.grad) == 2.0


def _tanh_network(seed):
    """Random 3-layer tanh network with ~20 parameters, scalar output."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(2, 2))
    params = ad.ParamVector.build({
        "w1": rng.normal(size=(2, 2)) * 0.7,
        "b1": rng.normal(size=(2,)) * 0.3,
        "w2": rng.normal(size=(2, 2)) * 0.7,
        "b2": rng.normal(size=(2,)) * 0.3,
        "w3": rng.normal(size=(2, 2)) * 0.7,
        "b3": rng.normal(size=(2,)) * 0.3,
        "out": rng.normal(size=(2,)),
    })

    def fn(view):
        h = ad.tanh(ad.add(ad.matmul(x0, view["w1"]), view["b1"]))
        h = ad.tanh(ad.add(ad.matmul(h, view["w2"]), view["b2"]))
        h = ad.tanh(ad.add(ad.matmul(h, view["w3"]), view["b3"]))
        return ad.tsum(ad.mul(h, view["out"]))

    return fn, params


@pytest.mark.parametrize("seed", range(4))
def test_backward_matches_finite_differences_on_tanh_network(seed):
    fn, params = _tanh_network(seed)
    assert params.size == 20
    _, grad = ad.value_and_grad(fn, params)

    def evaluate(vec):
        return ad.value_and_grad(fn, params.with_vector(vec))[0]

    fd = ad.finite_difference_gradient(evaluate, params.vector, h=1e-5)
    rel = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd)))
    assert rel <= 1e-6


def test_finite_difference_quadratic():
    fd = ad.finite_difference_gradient(lambda v: float(v[0] ** 2), np.array([3.0]), h=1e-4)
    assert fd[0] == pytest.approx(6.0, abs=1e-7)


def test_finite_difference_exponential():
    fd = ad.finite_difference_gradient(lambda v: float(np.exp(v[0])), np.array([0.0]), h=1e-5)
    assert fd[0] == pytest.approx(1.0, abs=1e-9)


def test_finite_difference_rejects_bad_step():
    with pytest.raises(DomainError):
        ad.finite_difference_gradient(lambda v: 0.0, np.zeros(1), h=0.0)


def test_finite_difference_propagates_nonfinite_with_coordinate():
    def fn(v):
        with np.errstate(invalid="ignore"):
            return float(np.log(v[1]))  # nan once v[1] is pushed below 0

    with pytest.raises(NumericalError, match="coordinate 1"):
        ad.finite_difference_gradient(fn, np.array([1.0, 0.3]), h=0.5)


@pytest.mark.parametrize("seed", range(10))
def test_backward_vs_fd_cross_check_random_networks(seed):
    fn, params = ad.random_check_network(seed)
    assert params.size <= 100
    _, grad = ad.value_and_grad(fn, params)

    def evaluate(vec):
        return ad.value_and_grad(fn, params.with_vector(vec))[0]

    fd = ad.finite_difference_gradient(evaluate, params.vector, h=1e-5)
    rel = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd)))
    assert rel <= 1e-5


def _primitive_cases():
    rng = np.random.default_rng(77)
    v3 = rng.normal(size=3)
    m23 = rng.normal(size=(2, 3))
    m32 = rng.normal(size=(3, 2))
    v6 = rng.normal(size=6)
    m43 = rng.normal(size=(4, 3))
    idx = np.array([2, 0, 2])
    cases = [
        ("add", lambda p: ad.tsum(ad.add(p["a"], v3)), {"a": rng.normal(size=3)}),
        ("sub", lambda p: ad.tsum(ad.sub(v3, p["a"])), {"a": rng.normal(size=3)}),
        ("mul", lambda p: ad.tsum(ad.mul(p["a"], p["b"])), {"a": rng.normal(size=3), "b": rng.normal(size=3)}),
        ("div", lambda p: ad.tsum(ad.div(p["a"], ad.add(ad.sigmoid(p["b"]), 1.0))),
         {"a": rng.normal(size=3), "b": rng.normal(size=3)}),
        ("neg", lambda p: ad.tsum(ad.neg(p["a"])), {"a": rng.normal(size=3)}),
        ("matmul", lambda p: ad.tsum(ad.matmul(m23, p["w"])), {"w": m32.copy()}),
        ("sum_axis", lambda p: ad.tsum(ad.tsum(p["a"], axis=0)), {"a": rng.normal(size=(2, 3))}),
        ("exp", lambda p: ad.tsum(ad.exp(p["a"])), {"a": rng.normal(size=3) * 0.5}),
        ("log", lambda p: ad.tsum(ad.log(ad.add(ad.sigmoid(p["a"]), 0.5))), {"a": rng.normal(size=3)}),
        ("sigmoid", lambda p: ad.tsum(ad.sigmoid(p["a"])), {"a": rng.normal(size=3)}),
        ("tanh", lambda p: ad.tsum(ad.tanh(p["a"])), {"a": rng.normal(size=3)}),
        ("log_sigmoid", lambda p: ad.tsum(ad.log_sigmoid(p["a"])), {"a": rng.normal(size=3) * 3}),
        ("logsumexp", lambda p: ad.logsumexp(p["a"]), {"a": rng.normal(size=4) * 2}),
        ("logsumexp_axis", lambda p: ad.tsum(ad.logsumexp(p["a"], axis=1)), {"a": rng.normal(size=(2, 4))}),
        ("gather", lambda p: ad.tsum(ad.gather(p["t"], idx)), {"t": rng.normal(size=4)}),
        ("reshape", lambda p: ad.tsum(ad.mul(ad.reshape(p["a"], (6,)), v6)),
         {"a": rng.normal(size=(2, 3))}),
        ("broadcast", lambda p: ad.tsum(ad.mul(p["row"], m43)),
         {"row": rng.normal(size=(1, 3))}),
    ]
    bits = (rng.random(size=(2, 4, 3)) < 0.5).astype(np.float64)  # (B, S, d_z)
    coins = lambda p: ad.tsum(ad.bernoulli_logpmf(bits, p["t"]))  # noqa: E731
    cases += [
        ("bernoulli_logpmf", coins, {"t": rng.normal(size=(2, 4, 3)) * 2}),
        ("bernoulli_logpmf_row", coins, {"t": rng.normal(size=3) * 2}),
        ("bernoulli_logpmf_per_item", coins, {"t": rng.normal(size=(2, 1, 3)) * 2}),
    ]
    return cases


@pytest.mark.parametrize("name,fn,named", _primitive_cases(), ids=[c[0] for c in _primitive_cases()])
def test_every_primitive_matches_finite_differences(name, fn, named):
    params = ad.ParamVector.build(named)
    _, grad = ad.value_and_grad(fn, params)

    def evaluate(vec):
        return ad.value_and_grad(fn, params.with_vector(vec))[0]

    fd = ad.finite_difference_gradient(evaluate, params.vector, h=1e-5)
    assert np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd))) <= 1e-5


def test_bernoulli_logpmf_matches_log_sigmoid_composition():
    # the composed form the primitive replaced, y log s(t) + (1 - y) log s(-t)
    rng = np.random.default_rng(5)
    y = (rng.random((4, 3, 6)) < 0.5).astype(np.float64)
    params = ad.ParamVector.build({"t": rng.normal(size=(4, 1, 6)) * 30})  # both tails

    def composed(view):
        t = view["t"]
        pos, neg = ad.log_sigmoid(t), ad.log_sigmoid(ad.neg(t))
        return ad.tsum(ad.tsum(ad.add(ad.mul(y, pos), ad.mul(1.0 - y, neg)), axis=-1))

    fused_value, fused_grad = ad.value_and_grad(lambda v: ad.tsum(ad.bernoulli_logpmf(y, v["t"])), params)
    ref_value, ref_grad = ad.value_and_grad(composed, params)
    assert fused_value == ref_value
    np.testing.assert_allclose(fused_grad, ref_grad, rtol=1e-12, atol=1e-15)


def test_bernoulli_logpmf_rejects_taped_observations():
    tape = ad.Tape()
    y = tape.leaf(np.ones(3))
    with pytest.raises(UsageError):
        ad.bernoulli_logpmf(y, np.zeros(3))


def test_pass_through_gradients_are_not_written_through():
    # add hands its incoming gradient to both parents and reshape a view of
    # it; p's later second contribution must land in p's slot alone
    c = np.array([0.5, -1.5, 2.0, 0.25])
    params = ad.ParamVector.build({"x": np.array([0.3, -0.7, 1.1, 0.0])})

    def fn(view):
        p, r = ad.exp(view["x"]), ad.tanh(view["x"])
        m = ad.mul(p, c)
        s = ad.add(p, r)
        w = ad.reshape(s, (2, 2))
        return ad.add(ad.tsum(ad.mul(w, w)), ad.tsum(m)), (p, r, s, w)

    view = params.lift(ad.Tape())
    out, (p, r, s, w) = fn(view)
    ad.backward(out)
    two_s = 2.0 * s.value
    np.testing.assert_array_equal(w.grad, 2.0 * w.value)
    np.testing.assert_array_equal(s.grad, two_s)
    np.testing.assert_array_equal(r.grad, two_s)
    np.testing.assert_array_equal(p.grad, two_s + c)
    fd = ad.finite_difference_gradient(lambda v: float(fn(params.with_vector(v).as_dict())[0]),
                                       params.vector)
    assert np.max(np.abs(view["x"].grad - fd)) / max(1.0, np.max(np.abs(fd))) <= 1e-5


def test_backward_linearity():
    def run(scale_a, scale_b):
        tape = ad.Tape()
        a = tape.leaf(np.array(1.3))
        b = tape.leaf(np.array(-0.4))
        out = ad.add(ad.mul(scale_a, ad.exp(a)), ad.mul(scale_b, ad.tanh(b)))
        ad.backward(out)
        return np.array([float(a.grad), float(b.grad)])

    combined = run(1.0, 1.0)
    only_a = run(1.0, 0.0)
    only_b = run(0.0, 1.0)
    np.testing.assert_allclose(combined, only_a + only_b, rtol=0, atol=1e-15)


def test_repeated_leaf_use_accumulates():
    tape = ad.Tape()
    a = tape.leaf(np.array(2.0))
    out = ad.add(ad.mul(a, a), ad.mul(3.0, a))  # a^2 + 3a -> 2a + 3 = 7
    ad.backward(out)
    assert float(a.grad) == pytest.approx(7.0, abs=1e-13)


def test_forward_backward_deterministic():
    def run():
        fn, params = ad.random_check_network(123)
        return ad.value_and_grad(fn, params)

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_shape_mismatch_names_offending_node():
    tape = ad.Tape()
    a = tape.leaf(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(a, np.ones((2, 2)))


def test_backward_requires_scalar():
    tape = ad.Tape()
    a = tape.leaf(np.ones(3))
    with pytest.raises(UsageError):
        ad.backward(ad.mul(a, 2.0))


def test_double_backward_rejected():
    tape = ad.Tape()
    a = tape.leaf(np.array(1.0))
    out = ad.mul(a, a)
    ad.backward(out)
    with pytest.raises(UsageError):
        ad.backward(out)


def test_gradient_before_backward_rejected():
    tape = ad.Tape()
    a = tape.leaf(np.array(1.0))
    ad.mul(a, a)
    with pytest.raises(UsageError):
        ad.grad_of(a)


# ParamVector ---------------------------------------------------------------


def test_param_vector_segments_disjoint_and_cover():
    pv = ad.ParamVector.build({"theta/w": np.arange(6.0).reshape(2, 3), "phi/b": np.ones(2)})
    assert pv.size == 8
    assert pv.names == ("theta/w", "phi/b")
    np.testing.assert_array_equal(pv.get("theta/w"), np.arange(6.0).reshape(2, 3))
    assert pv.mask("theta/").sum() == 6
    assert pv.segment_of_index(7) == "phi/b"


def test_param_vector_lift_shares_read_only_segments():
    pv = ad.ParamVector.build({"theta/w": np.arange(6.0).reshape(2, 3), "phi/b": np.ones(2)})
    view = pv.lift(ad.Tape())
    assert np.shares_memory(view["theta/w"].value, pv.vector)
    with pytest.raises(ValueError):
        view["theta/w"].value[0, 0] = 5.0
    with pytest.raises(ValueError):
        view["phi/b"].value += 1.0
    np.testing.assert_array_equal(pv.vector, np.r_[np.arange(6.0), np.ones(2)])


def test_param_vector_zero_outside_keeps_only_prefixed_segments():
    pv = ad.ParamVector.build({"theta/w": np.zeros((2, 3)), "phi/b": np.zeros(2),
                               "theta/c": np.zeros(1)})
    grad = np.arange(1.0, 10.0)
    assert pv.zero_outside(grad, ("phi/",)) is grad
    np.testing.assert_array_equal(grad, np.where(pv.mask("phi/"), np.arange(1.0, 10.0), 0.0))


def test_param_vector_duplicate_names_rejected():
    with pytest.raises(ShapeError):
        ad.ParamVector(["a", "a"], [(1,), (1,)], np.zeros(2))


def test_param_vector_replace_checks_shape():
    pv = ad.ParamVector.build({"a": np.zeros((2, 2))})
    with pytest.raises(ShapeError):
        pv.replace(a=np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6))
def test_sum_gradient_is_ones(values):
    tape = ad.Tape()
    a = tape.leaf(np.array(values))
    ad.backward(ad.tsum(a))
    np.testing.assert_array_equal(a.grad, np.ones(len(values)))


@settings(max_examples=25, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20))
def test_logsumexp_matches_direct_computation(a, b):
    tape = ad.Tape()
    v = tape.leaf(np.array([a, b]))
    out = ad.logsumexp(v)
    assert float(out.value) == pytest.approx(np.logaddexp(a, b), rel=1e-12, abs=1e-12)
