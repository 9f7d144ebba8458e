import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvo import autodiff as ad
from tvo import util
from tvo.errors import DomainError, NumericalError, ShapeError, UsageError


def scalar_tape(value):
    tape = ad.Tape()
    return tape, tape.leaf(np.array(value))


def test_forward_identity():
    _, a = scalar_tape(3.0)
    assert a.item() == 3.0


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


def test_check_networks_record_every_primitive():
    # the networks behind c05 and `tvo check-gradients` must exercise each
    # primitive's vjp; tsum records "sum", and the two composites record
    # only the nodes of the primitives they call
    recorded = set()
    for seed in range(50):
        fn, params = ad.random_check_network(seed)
        tape = ad.Tape()
        fn(params.lift(tape))
        recorded.update(node.op for node in tape.nodes)
    nodes_of = {"tsum": {"sum"}, "tmean": {"sum", "mul"}, "log_softmax": {"sub", "logsumexp"}}
    others = {"TILE", "Tape", "Var", "backward", "value_of", "ParamVector",
              "finite_difference_gradient", "value_and_grad", "random_check_network"}
    for name in set(ad.__all__) - others:
        assert nodes_of.get(name, {name}) <= recorded, name


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
        ("neg", lambda p: ad.tsum(ad.neg(p["a"])), {"a": rng.normal(size=3)}),
        ("matmul", lambda p: ad.tsum(ad.matmul(m23, p["w"])), {"w": m32.copy()}),
        ("sum_axis", lambda p: ad.tsum(ad.tsum(p["a"], axis=0)), {"a": rng.normal(size=(2, 3))}),
        ("exp", lambda p: ad.tsum(ad.exp(p["a"])), {"a": rng.normal(size=3) * 0.5}),
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
    cases += [
        ("affine", lambda p: ad.tsum(ad.tanh(ad.affine(m23, p["w"], p["b"]))),
         {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}),
        ("affine_taped_x", lambda p: ad.tsum(ad.tanh(ad.affine(p["x"], p["w"], p["b"]))),
         {"x": rng.normal(size=(4, 3)), "w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}),
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


@pytest.mark.parametrize("x_taped", [False, True])
def test_affine_is_bit_equal_to_matmul_then_add(x_taped):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(7, 5))
    params = ad.ParamVector.build({"x": x, "w": rng.normal(size=(5, 3)), "b": rng.normal(size=3)})
    weights = rng.normal(size=(7, 3))

    def through(layer):
        def fn(view):
            inp = view["x"] if x_taped else x
            return ad.tsum(ad.mul(ad.tanh(layer(inp, view["w"], view["b"])), weights))
        return fn

    fused_value, fused_grad = ad.value_and_grad(through(ad.affine), params)
    ref_value, ref_grad = ad.value_and_grad(through(lambda a, w, b: ad.add(ad.matmul(a, w), b)), params)
    assert fused_value == ref_value
    assert fused_grad.tobytes() == ref_grad.tobytes()
    w, b = params.get("w"), params.get("b")
    assert ad.affine(x, w, b).tobytes() == ad.add(ad.matmul(x, w), b).tobytes()


@pytest.mark.parametrize("x_shape,w_shape,b_shape", [
    ((5,), (5, 3), (3,)),        # x not 2-d
    ((4, 5), (4, 3), (3,)),      # inner dimensions differ
    ((4, 5), (5, 3, 1), (3,)),   # w not 2-d
    ((4, 5), (5, 3), (4,)),      # bias length differs from the output width
    ((4, 5), (5, 3), (1, 3)),    # bias not a row vector
])
def test_affine_rejects_incompatible_shapes(x_shape, w_shape, b_shape):
    tape = ad.Tape()
    w = tape.leaf(np.zeros(w_shape))
    with pytest.raises(ShapeError):
        ad.affine(np.zeros(x_shape), w, np.zeros(b_shape))
    with pytest.raises(ShapeError):
        ad.affine(np.zeros(x_shape), np.zeros(w_shape), np.zeros(b_shape))


def _untiled_bernoulli_logpmf(y, t):
    # the one-pass form every tile repeats, over the whole broadcast at once
    s = (1.0 - 2.0 * y) * t
    tail = np.log1p(np.exp(-np.abs(s)))
    return -np.sum(np.maximum(s, 0.0) + tail, axis=-1)


def _tile_cases():
    tile = ad.TILE
    return [
        ("vae_eval_block", (5, 1, 784), (5, 200, 784)),   # one row of x per item
        ("per_item_logits", (5, 200, 784), (5, 1, 784)),
        ("prior_row", (5, 200, 784), (784,)),
        ("ragged_items", (11, 10, 784), (11, 10, 784)),   # 8 items per tile, then 3
        ("ragged_samples", (3, 1000, 100), (3, 1, 100)),  # 655 rows per tile, then 345
        ("long_rows", (3, tile + 5), (3, tile + 5)),      # a row longer than a tile
        ("one_long_row", (tile + 5,), (tile + 5,)),
    ]


@pytest.mark.parametrize("y_shape,t_shape", [c[1:] for c in _tile_cases()],
                         ids=[c[0] for c in _tile_cases()])
def test_tiled_bernoulli_logpmf_is_bit_equal_to_one_call(y_shape, t_shape):
    rng = np.random.default_rng(31)
    y = (rng.random(y_shape) < 0.5).astype(np.float64)
    t = rng.normal(size=t_shape) * 4.0
    got = ad.bernoulli_logpmf(y, t)
    want = _untiled_bernoulli_logpmf(y, t)
    assert np.broadcast_shapes(y_shape, t_shape)[:-1] == got.shape
    assert np.prod(np.broadcast_shapes(y_shape, t_shape)) > ad.TILE
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_tape_free_bernoulli_logpmf_equals_the_taped_value():
    rng = np.random.default_rng(32)
    y = (rng.random((5, 1, 784)) < 0.5).astype(np.float64)
    t = rng.normal(size=(5, 200, 784)) * 4.0
    taped = ad.bernoulli_logpmf(y, ad.Tape().leaf(t))
    assert ad.bernoulli_logpmf(y, t).tobytes() == taped.value.tobytes()


def test_tiled_bernoulli_logpmf_memory_is_bounded_by_the_tile():
    # one untiled call would make two (5, 200, 784) temporaries, 12.5 MB
    rng = np.random.default_rng(33)
    y = (rng.random((5, 1, 784)) < 0.5).astype(np.float64)
    t = rng.normal(size=(5, 200, 784))
    tracemalloc.start()
    try:
        ad.bernoulli_logpmf(y, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * ad.TILE * 8


def _full_logit_cases():
    tile = ad.TILE
    return [
        ("small", (3, 4, 6), (3, 4, 6)),
        ("one_tile_exactly", (2, 1, 4096), (2, 8, 4096)),  # TILE elements, one call
        ("vae_step", (24, 1, 784), (24, 10, 784)),        # y broadcast over samples
        ("ragged_items", (11, 1, 784), (11, 10, 784)),    # 8 items per tile, then 3
        ("ragged_samples", (3, 1, 100), (3, 1000, 100)),  # 655 rows per tile, then 345
        ("long_rows", (3, tile + 5), (3, tile + 5)),      # a row longer than a tile
        ("one_long_row", (tile + 5,), (tile + 5,)),
        # logits smaller than the broadcast
        ("prior_row", (4, 6, 12), (12,)),
        ("per_item_row", (24, 10, 200), (24, 1, 200)),
        ("prior_row_tiled", (30, 30, 100), (100,)),
        ("per_item_row_tiled", (5, 200, 784), (5, 1, 784)),
    ]


@pytest.mark.parametrize("y_shape,t_shape", [c[1:] for c in _full_logit_cases()],
                         ids=[c[0] for c in _full_logit_cases()])
def test_taped_full_logits_are_bit_equal_to_the_untiled_value_and_gradient(y_shape, t_shape):
    # the reference is the one-pass value and the vjp every taped call used
    # to take: g * (y - sigmoid(t)), with sigmoid recomputed over all of t,
    # reduced to the logits' shape
    rng = np.random.default_rng(35)
    y = (rng.random(y_shape) < 0.5).astype(np.float64)
    t = rng.normal(size=t_shape) * 4.0
    flat = t.reshape(-1)
    flat[rng.choice(flat.size, 6, replace=False)] = [np.inf, -np.inf, np.nan, np.inf, -np.inf, -np.nan]
    g = rng.normal(size=np.broadcast_shapes(y_shape, t_shape)[:-1])
    tape = ad.Tape()
    leaf = tape.leaf(t)
    node = ad.bernoulli_logpmf(y, leaf)
    with np.errstate(invalid="ignore"):
        ad.backward(ad.tsum(ad.mul(node, g)))
        want_value = _untiled_bernoulli_logpmf(y, t)
        want_grad = ad._unbroadcast(np.asarray(g)[..., None] * (y - util.sigmoid(t)), t.shape)
    assert node.value.tobytes() == np.asarray(want_value).tobytes()
    assert leaf.grad.shape == t.shape
    assert leaf.grad.tobytes() == want_grad.tobytes()


def test_taped_tiled_gradient_matches_directional_finite_differences():
    # a per-coordinate check of 86k logits takes too long; random directions
    # test the tiled gradient as a whole
    rng = np.random.default_rng(36)
    y = (rng.random((11, 1, 784)) < 0.5).astype(np.float64)
    t = rng.normal(size=(11, 10, 784)) * 3.0
    w = rng.normal(size=(11, 10))
    assert t.size > ad.TILE
    params = ad.ParamVector.build({"t": t})

    def fn(view):
        return ad.tsum(ad.mul(ad.bernoulli_logpmf(y, view["t"]), w))

    _, grad = ad.value_and_grad(fn, params)
    h = 1e-5
    for _ in range(3):
        v = rng.normal(size=t.size)
        hi = ad.value_and_grad(fn, params.with_vector(params.vector + h * v))[0]
        lo = ad.value_and_grad(fn, params.with_vector(params.vector - h * v))[0]
        fd = (hi - lo) / (2.0 * h)
        assert abs(grad @ v - fd) / max(1.0, abs(fd)) <= 1e-5


def test_taped_tiled_bernoulli_memory_is_one_full_array_and_the_tiles():
    # the forward keeps y - sigmoid(t) as the one full-size array, which the
    # vjp scales in place into the logits' gradient
    rng = np.random.default_rng(37)
    y = (rng.random((5, 1, 784)) < 0.5).astype(np.float64)
    t = rng.normal(size=(5, 200, 784))
    tape = ad.Tape()
    leaf = tape.leaf(t)
    tracemalloc.start()
    try:
        ad.backward(ad.tsum(ad.bernoulli_logpmf(y, leaf)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert leaf.grad.shape == t.shape
    assert peak <= t.nbytes + 3 * ad.TILE * 8


@pytest.mark.parametrize("taped", [False, True], ids=["tape-free", "taped"])
@pytest.mark.parametrize("t_shape", [(6,), (3, 1, 6)], ids=["prior_row", "per_item"])
def test_broadcast_logits_score_as_their_materialized_broadcast(t_shape, taped):
    # the tail is taken on the logits' own shape; for binary y that is bit
    # for bit the tail of the materialized broadcast
    rng = np.random.default_rng(34)
    y = (rng.random((3, 4, 6)) < 0.5).astype(np.float64)
    t = rng.normal(size=t_shape) * 4.0
    assert y.size <= ad.TILE
    got = ad.value_of(ad.bernoulli_logpmf(y, ad.Tape().leaf(t) if taped else t))
    wide = np.broadcast_to(t, y.shape).copy()
    assert got.tobytes() == ad.bernoulli_logpmf(y, wide).tobytes()
    assert got.tobytes() == _untiled_bernoulli_logpmf(y, wide).tobytes()
    params = ad.ParamVector.build({"t": t})

    def fn(view):
        return ad.tsum(ad.bernoulli_logpmf(y, view["t"]))

    _, grad = ad.value_and_grad(fn, params)
    fd = ad.finite_difference_gradient(lambda v: ad.value_and_grad(fn, params.with_vector(v))[0],
                                       params.vector)
    assert np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd))) <= 1e-5


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


def test_sub_passes_its_gradient_through_without_writing_it_through():
    # sub hands its incoming gradient itself to its left parent; p's later
    # second contribution must not land in s's slot
    c = np.array([0.5, -1.5, 2.0])
    tape = ad.Tape()
    x = tape.leaf(np.array([0.3, -0.7, 1.1]))
    p, r = ad.exp(x), ad.tanh(x)
    m = ad.mul(p, c)
    s = ad.sub(p, r)
    ad.backward(ad.add(ad.tsum(ad.mul(s, s)), ad.tsum(m)))
    np.testing.assert_array_equal(s.grad, 2.0 * s.value)
    np.testing.assert_array_equal(p.grad, 2.0 * s.value + c)
    np.testing.assert_array_equal(r.grad, -2.0 * s.value)


def test_constant_arguments_are_neither_parents_nor_differentiated(monkeypatch):
    called = []
    record = ad._node

    def spying(op, out, *pairs):  # logs (op, argument position) of every vjp called
        return record(op, out, *[(arg, lambda g, i=i, vjp=vjp: called.append((op, i)) or vjp(g))
                                 for i, (arg, vjp) in enumerate(pairs)])

    monkeypatch.setattr(ad, "_node", spying)
    rng = np.random.default_rng(5)
    x, c = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
    cases = [(lambda w, b: ad.affine(x, w, b), "affine", [1, 2]),
             (lambda w, b: ad.mul(c, w), "mul", [1]), (lambda w, b: ad.mul(w, c), "mul", [0]),
             (lambda w, b: ad.sub(c, w), "sub", [1]), (lambda w, b: ad.sub(w, c), "sub", [0])]
    for build, op, live in cases:
        tape = ad.Tape()
        w, b = tape.leaf(rng.normal(size=(3, 2))), tape.leaf(rng.normal(size=2))
        out = build(w, b)
        assert out.op == op
        assert out._parents == ((w, b) if op == "affine" else (w,))
        called.clear()
        ad.backward(ad.tsum(out))
        assert sorted(i for o, i in called if o == op) == live


def test_tape_free_calls_return_plain_arrays_and_record_nothing():
    rng = np.random.default_rng(6)
    tape = ad.Tape()
    leaf = tape.leaf(rng.normal(size=(2, 3)))
    a, w = leaf.value.copy(), rng.normal(size=(3, 2))
    bits = (rng.random(size=(2, 3)) < 0.5).astype(np.float64)
    calls = {
        "add": lambda: ad.add(a, 1.0), "sub": lambda: ad.sub(1.0, a), "mul": lambda: ad.mul(a, a),
        "neg": lambda: ad.neg(a), "matmul": lambda: ad.matmul(a, w),
        "affine": lambda: ad.affine(a, w, w[0]), "tsum": lambda: ad.tsum(a, axis=1),
        "tmean": lambda: ad.tmean(a, axis=0), "exp": lambda: ad.exp(a),
        "tanh": lambda: ad.tanh(a), "log_sigmoid": lambda: ad.log_sigmoid(a),
        "bernoulli_logpmf": lambda: ad.bernoulli_logpmf(bits, a),
        "logsumexp": lambda: ad.logsumexp(a, axis=1), "log_softmax": lambda: ad.log_softmax(a),
        "gather": lambda: ad.gather(a, [1, 0, 1]), "reshape": lambda: ad.reshape(a, (6,)),
    }
    others = {"TILE", "Tape", "Var", "backward", "value_of", "ParamVector",
              "finite_difference_gradient", "value_and_grad", "random_check_network"}
    assert set(calls) == set(ad.__all__) - others
    for name, call in calls.items():
        assert type(call()) is np.ndarray, name
    assert tape.nodes == [leaf]


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


def test_finished_tape_records_nothing_more():
    tape = ad.Tape()
    a = tape.leaf(np.array(1.5))
    out = ad.mul(a, a)
    ad.backward(out)
    with pytest.raises(UsageError, match="mul"):
        ad.mul(a, 2.0)
    with pytest.raises(UsageError, match="exp"):
        ad.exp(out)
    with pytest.raises(UsageError):
        tape.leaf(np.array(1.0))
    assert len(tape.nodes) == 2


def test_primitive_rejects_vars_of_two_tapes():
    a, b = ad.Tape().leaf(np.array(1.0)), ad.Tape().leaf(np.array(2.0))
    with pytest.raises(UsageError, match="add"):
        ad.add(a, b)


def test_finished_tape_nodes_stay_readable():
    tape = ad.Tape()
    a = tape.leaf(np.array([1.0, 2.0]), name="a")
    out = ad.tsum(ad.mul(a, a))
    ad.backward(out)
    assert [node.op for node in tape.nodes] == ["a", "mul", "sum"]
    assert tape.nodes[1]._parents == (a, a)
    assert float(tape.nodes[2].value) == 5.0
    np.testing.assert_array_equal(a.grad, [2.0, 4.0])
    assert all(node.tape is None for node in tape.nodes)


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


def test_param_vector_with_vector_checks_length_and_views_the_new_vector():
    pv = ad.ParamVector.build({"theta/w": np.zeros((2, 3)), "phi/b": np.zeros(2)})
    for size in (7, 9):
        with pytest.raises(ShapeError):
            pv.with_vector(np.zeros(size))
    vec = np.arange(8.0)
    moved = pv.with_vector(vec)
    assert (moved.names, moved.shapes, moved.size) == (pv.names, pv.shapes, 8)
    vec[0] = -1.0
    vec[7] = -7.0
    np.testing.assert_array_equal(moved.get("theta/w"), np.r_[-1.0, 1.0:6.0].reshape(2, 3))
    np.testing.assert_array_equal(moved.get("phi/b"), [6.0, -7.0])
    assert all(np.shares_memory(moved.get(n), vec) for n in moved.names)
    assert not pv.vector.any()


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


def _masked_logsumexp_rows(av):
    """Row logsumexp and its softmax with -inf entries masked explicitly:
    the reference for logsumexp's unmasked arithmetic."""
    with np.errstate(all="ignore"):
        m = np.max(av, axis=1, keepdims=True)
        m_safe = np.where(np.isfinite(m), m, 0.0)
        total = np.sum(np.exp(np.where(av == -np.inf, -np.inf, av - m_safe)), axis=1, keepdims=True)
        out = np.where(np.isfinite(m), m_safe + np.log(total), m)
        soft = np.where(av == -np.inf, 0.0, np.exp(av - np.where(np.isfinite(out), out, 0.0)))
    return out[:, 0], soft


def test_logsumexp_edge_rows_values_and_gradients():
    inf, nan = np.inf, np.nan
    rows = np.array([[0.5, -inf, 2.0], [-inf, -inf, -inf], [inf, 1.0, 2.0],
                     [nan, 1.0, -inf], [inf, -inf, 0.3], [-inf, inf, -inf]])
    values, grads = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row in rows:  # one tape per row: a sum over rows would form inf - inf
            tape = ad.Tape()
            a = tape.leaf(row[None, :])
            out = ad.logsumexp(a, axis=1)
            ad.backward(ad.tsum(out))
            values.append(out.value[0])
            grads.append(a.grad[0])
        plain = ad.logsumexp(rows, axis=1)
        whole = ad.logsumexp(rows[0])
    ref_out, ref_grad = _masked_logsumexp_rows(rows)
    np.testing.assert_array_equal(values, ref_out)
    np.testing.assert_array_equal(grads, ref_grad)
    np.testing.assert_array_equal(plain, ref_out)
    assert whole == ref_out[0] == pytest.approx(np.logaddexp(0.5, 2.0), rel=1e-15)
    np.testing.assert_array_equal(values[1:], [-inf, inf, nan, inf, inf])
    assert np.all(np.array(grads)[rows == -inf] == 0.0)
    np.testing.assert_allclose(grads[0], [1 / (1 + np.exp(1.5)), 0.0, 1 / (1 + np.exp(-1.5))],
                               rtol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20))
def test_logsumexp_matches_direct_computation(a, b):
    tape = ad.Tape()
    v = tape.leaf(np.array([a, b]))
    out = ad.logsumexp(v)
    assert float(out.value) == pytest.approx(np.logaddexp(a, b), rel=1e-12, abs=1e-12)
