"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tape records primitive operations in construction order, which is already a
topological order, so the backward pass is one reversed sweep over the node
list. Gradient slots start at zero and accumulate, so a leaf used several
times (shared weights) gets the sum of its contributions.

Every primitive follows one recording rule (_node): it computes its value,
then pairs each argument with the vector-Jacobian product for that argument.
Given only plain numpy arrays it returns the plain value (the fast path of
sampling and evaluation); otherwise it records one node whose parents are
its Var arguments, each with its own vjp, and a constant argument's vjp is
never called. Model code is therefore written once and runs in both modes.
Primitives are called by name (add, mul, matmul, ...): Var has no operator
sugar, and ndarray <op> Var raises.

Tape lifecycle. A Tape lives while its forward pass records and until its
backward pass ends. backward then detaches every node (node.tape = None),
which marks the tape finished and breaks the only reference cycle a tape
has, Var -> Tape -> nodes -> Var. So whoever drops the last reference to
the tape (in a training step, the function that built it, when it returns)
frees the whole step (values, gradient slots and vjp closures) by reference
counting, not at some later cyclic collection. A holder of the tape can
still read tape.nodes in full, with each node's op, parents, value and grad.
Freeing every step's arrays at once, though, lets the C allocator give the
top of its heap back to the OS and fault it in again on the next step:
thousands of page faults a step on the full-scale SBN. This module therefore
keeps the last finished tape alive until the next backward ends, so each
step's arrays are allocated while the previous step's are still held, and
released into holes the step after reuses; the resident set stays at about
two steps' tapes.
"""
from __future__ import annotations

import collections
import math

import numpy as np

from . import util
from .errors import DomainError, NumericalError, ShapeError, UsageError

__all__ = [
    "TILE", "Tape", "Var", "backward", "add", "sub", "mul", "neg", "matmul",
    "affine", "tsum", "tmean", "exp", "tanh", "log_sigmoid",
    "bernoulli_logpmf", "logsumexp", "log_softmax", "gather", "reshape", "value_of",
    "ParamVector", "finite_difference_gradient", "value_and_grad",
    "random_check_network",
]

# Elements per tile of a large elementwise kernel: 512 KB of float64, so the
# few temporaries of one tile stay in cache instead of streaming through
# memory once per pass.
TILE = 1 << 16

# Holds the last tape that backward finished until the next backward ends
# (see the module docstring); a fixed container, so backward rebinds no
# module attribute.
_finished = collections.deque(maxlen=1)


class Tape:
    """Append-only record of primitive operations; finished once backward
    has run on it, when its nodes no longer point back to it."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []

    def leaf(self, value, name=None) -> "Var":
        if self.nodes and self.nodes[0].tape is None:
            raise UsageError("backward already ran on this tape; build a fresh tape")
        return Var(self, _as_array(value), op=name or "leaf")


class Var:
    """One node of the recorded computation: a float64 array plus its adjoint slot.

    `_parents` are the Var arguments of the primitive that made the node, in
    argument order, and `_vjps` holds one vector-Jacobian product for each;
    a leaf has neither. `tape` is None once backward has run on the tape.
    """

    __slots__ = ("tape", "value", "grad", "op", "_parents", "_vjps")
    __array_ufunc__ = None  # keep numpy from hijacking ndarray <op> Var

    def __init__(self, tape, value, parents=(), vjps=(), op="leaf"):
        self.tape = tape
        self.value = value
        self.grad = None
        self.op = op
        self._parents = parents
        self._vjps = vjps
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Var(op={self.op}, shape={self.value.shape})"


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def value_of(x) -> np.ndarray:
    """Underlying array of a Var or plain input."""
    return x.value if isinstance(x, Var) else _as_array(x)


def _unbroadcast(grad, shape):
    """Reduce grad back to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _unreduce(g, ndim, axis, keepdims):
    """Adjoint g of a reduction over `axis` of an ndim-d array, with the
    reduced axes put back at length 1 so it broadcasts against the input."""
    if keepdims:
        return g
    if axis is None:
        return np.asarray(g).reshape((1,) * ndim)
    return np.expand_dims(g, axis)


def backward(out: Var) -> None:
    """Accumulate d(out)/d(node) into .grad for every node reaching `out`.

    `out` must be a scalar. One backward pass per tape; each node is visited
    exactly once, in reverse construction order.

    A parent's first contribution is stored as its slot without a copy. A vjp
    returns fresh arrays, or (add, sub, reshape) its incoming gradient or a
    view of it, which other nodes' slots may share; such a borrowed slot is
    replaced by a new sum on its next contribution instead of being added to
    in place.

    The pass ends by detaching every node from the tape (node.tape = None),
    which finishes it: a second backward, a new leaf or a primitive on one
    of its Vars raises UsageError. The detach breaks the Var <-> Tape cycle,
    so the tape, with its values, slots and vjp closures, is freed by
    reference counting as soon as its last holder drops it; tape.nodes stays
    whole and readable for that holder. This module holds the finished tape
    until the next backward ends (the module docstring says why).
    """
    if not isinstance(out, Var):
        raise UsageError("backward requires a Var produced by a forward evaluation")
    tape = out.tape
    if tape is None:
        raise UsageError("backward already ran on this tape; build a fresh tape")
    if out.value.size != 1:
        raise UsageError(f"backward requires a scalar output, got shape {out.value.shape}")
    out.grad = np.ones_like(out.value)
    owned = set()  # ids of nodes whose slot no other node can see
    for node in reversed(tape.nodes):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            pgrad = vjp(g)
            if parent.grad is None:
                parent.grad = pgrad
                if pgrad is not g and pgrad.base is None:
                    owned.add(id(parent))
            elif id(parent) in owned:
                parent.grad += pgrad
            else:
                parent.grad = parent.grad + pgrad
                owned.add(id(parent))
    for node in tape.nodes:
        node.tape = None
    _finished.append(tape)


# ---------------------------------------------------------------------------
# primitives


def _node(op, out, *pairs):
    """The one recording rule: `out` as a node whose parents are the Var
    arguments among `pairs` of (argument, vjp for that argument), in order.

    Without a Var argument `out` comes back as it is. A constant argument
    never becomes a parent, so its vjp is never called. Var arguments must
    come from one tape that has not finished.
    """
    parents, vjps = [], []
    for arg, vjp in pairs:
        if isinstance(arg, Var):
            parents.append(arg)
            vjps.append(vjp)
    if not parents:
        return out
    tape = parents[0].tape
    if tape is None or any(p.tape is not tape for p in parents):
        raise UsageError(f"{op}: every Var argument must come from one tape on which "
                         "backward has not run")
    return Var(tape, np.asarray(out), tuple(parents), tuple(vjps), op)


def add(a, b):
    av, bv = value_of(a), value_of(b)
    return _node("add", av + bv,
                 (a, lambda g: _unbroadcast(g, av.shape)),
                 (b, lambda g: _unbroadcast(g, bv.shape)))


def sub(a, b):
    av, bv = value_of(a), value_of(b)
    return _node("sub", av - bv,
                 (a, lambda g: _unbroadcast(g, av.shape)),
                 (b, lambda g: _unbroadcast(-g, bv.shape)))


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    return _node("mul", av * bv,
                 (a, lambda g: _unbroadcast(g * bv, av.shape)),
                 (b, lambda g: _unbroadcast(g * av, bv.shape)))


def neg(a):
    return _node("neg", -value_of(a), (a, np.negative))


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} @ {bv.shape}")
    return _node("matmul", av @ bv, (a, lambda g: g @ bv.T), (b, lambda g: av.T @ g))


def affine(x, w, b):
    """x @ w + b for a 2-d x, 2-d w and bias row b: one dense layer, one node.

    The bias is added in place to the fresh product, so the value is bit for
    bit that of add(matmul(x, w), b) without a second (n, d_out) array, and
    the vjp (g @ w.T, x.T @ g, g summed over rows) gives the same gradients.
    """
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise ShapeError(f"affine: incompatible shapes {xv.shape} @ {wv.shape} + {bv.shape}")
    out = xv @ wv
    out += bv
    return _node("affine", out, (x, lambda g: g @ wv.T), (w, lambda g: xv.T @ g),
                 (b, lambda g: g.sum(axis=0)))


def tsum(a, axis=None, keepdims=False):
    av = value_of(a)
    return _node("sum", np.sum(av, axis=axis, keepdims=keepdims),
                 (a, lambda g: np.broadcast_to(_unreduce(g, av.ndim, axis, keepdims), av.shape).copy()))


def tmean(a, axis=None, keepdims=False):
    av = value_of(a)
    n = av.size if axis is None else av.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def exp(a):
    out = np.exp(value_of(a))
    return _node("exp", out, (a, lambda g: g * out))


def tanh(a):
    out = np.tanh(value_of(a))
    return _node("tanh", out, (a, lambda g: g * (1.0 - out * out)))


def log_sigmoid(a):
    """log(sigmoid(a)), stable on both tails; its derivative is sigmoid(-a)."""
    av = value_of(a)
    return _node("log_sigmoid", util.log_sigmoid(av), (a, lambda g: g * util.sigmoid(-av)))


def bernoulli_logpmf(y, logits):
    """sum_i log Bernoulli(y_i | sigmoid(t_i)) over the last axis, one tape node.

    y must be binary constant data (the models check it). This is then
    exactly -sum(logaddexp(0, s)), s = (1 - 2y) t, evaluated as max(s, 0) +
    log1p(exp(-|s|)); as |s| = |t| bit for bit, logits that broadcast
    against y (a shared prior row, one encoder row per datum) give that tail
    on their own, smaller shape. The vjp is g * (y - sigmoid(t)), reduced
    back to the logits' shape.

    A call of more than TILE elements runs in tiles of whole rows (one row
    per leading index), at most TILE elements each unless one row is
    longer, into one preallocated output; broadcast logits on a tape are
    the exception and stay one call. When the logits are a Var of the full
    broadcast shape, each tile also writes y - sigmoid(t) into one
    full-size array from the same exp(-|t|) as its tail, and the vjp
    multiplies that array by g in place and returns it; broadcast logits
    recompute the sigmoid in their vjp. Each element sees the same
    operations and each row is summed on its own, so tiling changes no bit
    of the value or the gradient.
    """
    if isinstance(y, Var):
        raise UsageError("bernoulli_logpmf: y must be constant observations, not a Var")
    yv, tv = _as_array(y), value_of(logits)
    sign = 1.0 - 2.0 * yv  # turns t into the log-odds against the observed value
    shape = np.broadcast(sign, tv).shape
    if isinstance(logits, Var) and tv.shape != shape:
        return _node("bernoulli_logpmf", _bernoulli_rows(sign, tv), (logits, lambda g: _unbroadcast(
            np.asarray(g)[..., None] * (yv - util.sigmoid(tv)), tv.shape)))
    dt = np.empty(shape) if isinstance(logits, Var) else None
    if math.prod(shape) <= TILE:
        out = _bernoulli_rows(sign, tv, yv, dt)
    else:
        out = np.empty(shape[:-1])
        _bernoulli_tiles(out, np.broadcast_to(sign, shape), np.broadcast_to(tv, shape),
                         np.broadcast_to(yv, shape), dt)
    return _node("bernoulli_logpmf", out,
                 (logits, lambda g: np.multiply(np.asarray(g)[..., None], dt, out=dt)))


def _bernoulli_rows(sign, t, y=None, dt=None, out=None):
    """-sum(max(s, 0) + log1p(exp(-|s|)), axis=-1) with s = sign * t, into
    `out` when given; sign is +-1, so broadcast logits give the tail. Given
    `dt` (t of the full shape), also writes y - sigmoid(t) into it from the
    same exp(-|s|) = exp(-|t|)."""
    s = sign * t
    e = np.abs(t if t.size < s.size else s)
    np.negative(e, out=e)
    np.exp(e, out=e)
    tail = np.log1p(e, out=e if dt is None else dt)
    np.maximum(s, 0.0, out=s)
    s += tail
    out = np.negative(np.sum(s, axis=-1, out=out), out=out)
    if dt is not None:
        np.subtract(y, util.sigmoid_of_tail(e, t, s), out=dt)
    return out


def _bernoulli_tiles(out, sign, t, y, dt):
    """_bernoulli_rows over the first axis in slices of at most TILE elements;
    an index of the first axis that alone holds more is split along the next.
    dt is None, or sliced like t."""
    step = TILE // sign[0].size if out.ndim else 0
    if step:
        for lo in range(0, out.shape[0], step):
            sl = slice(lo, lo + step)
            _bernoulli_rows(sign[sl], t[sl], y[sl], None if dt is None else dt[sl], out[sl])
    elif out.ndim > 0:
        for i in range(out.shape[0]):
            _bernoulli_tiles(out[i, ...], sign[i], t[i], y[i], None if dt is None else dt[i])
    else:
        _bernoulli_rows(sign, t, y, dt, out)


def logsumexp(a, axis=None, keepdims=False):
    av = value_of(a)
    m = np.max(av, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):  # log(0) on an all -inf row, which out_k replaces by m
        total = np.sum(np.exp(av - m_safe), axis=axis, keepdims=True)
        out_k = np.where(np.isfinite(m), m_safe + np.log(total), m)
    out = out_k if keepdims else (np.squeeze(out_k, axis=axis) if axis is not None else out_k.reshape(()))

    def vjp(g):  # g times the softmax of a; exp(-inf - finite) = 0 where a = -inf
        soft = np.exp(av - np.where(np.isfinite(out_k), out_k, 0.0))
        return _unreduce(g, av.ndim, axis, keepdims) * soft

    return _node("logsumexp", out, (a, vjp))


def log_softmax(a, axis=-1):
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def gather(a, idx):
    """Index/select along the first axis with an integer array; duplicate
    indices accumulate on the backward pass."""
    av = value_of(a)
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"gather: index dtype must be integer, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[0]):
        raise ShapeError(f"gather: index out of range for axis of length {av.shape[0]}")

    def vjp(g):
        acc = np.zeros_like(av)
        np.add.at(acc, idx, g)
        return acc

    return _node("gather", av[idx], (a, vjp))


def reshape(a, shape):
    av = value_of(a)
    return _node("reshape", av.reshape(shape), (a, lambda g: g.reshape(av.shape)))


# ---------------------------------------------------------------------------
# parameter vectors


class ParamVector:
    """Named, disjoint segments partitioning one flat float64 vector.

    Segment names carry an optimizer-facing prefix ("theta/..." for the
    generative model, "phi/..." for the inference network).
    """

    def __init__(self, names, shapes, vector):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ShapeError("segment names must be unique")
        self.shapes = tuple(tuple(s) for s in shapes)
        sizes = [int(np.prod(s)) if len(s) else 1 for s in self.shapes]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        self._slices = {n: (slice(int(offsets[i]), int(offsets[i + 1])), self.shapes[i])
                        for i, n in enumerate(self.names)}
        vector = _as_array(vector).ravel()
        if vector.size != offsets[-1]:
            raise ShapeError(f"vector length {vector.size} does not match segments ({offsets[-1]})")
        self.vector = vector

    @classmethod
    def build(cls, named) -> "ParamVector":
        items = list(named.items()) if isinstance(named, dict) else list(named)
        names = [n for n, _ in items]
        arrays = [_as_array(a) for _, a in items]
        shapes = [a.shape for a in arrays]
        vector = np.concatenate([a.ravel() for a in arrays]) if arrays else np.zeros(0)
        return cls(names, shapes, vector)

    @property
    def size(self) -> int:
        return self.vector.size

    def get(self, name) -> np.ndarray:
        sl, shape = self._slices[name]
        return self.vector[sl].reshape(shape)

    def as_dict(self) -> dict:
        return {n: self.get(n) for n in self.names}

    def with_vector(self, vector) -> "ParamVector":
        """The same segments over `vector`, sharing this layout."""
        vector = _as_array(vector).ravel()
        if vector.size != self.size:
            raise ShapeError(f"vector length {vector.size} does not match segments ({self.size})")
        out = object.__new__(ParamVector)
        out.names, out.shapes, out._slices, out.vector = self.names, self.shapes, self._slices, vector
        return out

    def replace(self, **named) -> "ParamVector":
        vec = self.vector.copy()
        for name, arr in named.items():
            sl, shape = self._slices[name]
            arr = _as_array(arr)
            if arr.shape != shape:
                raise ShapeError(f"segment {name}: expected shape {shape}, got {arr.shape}")
            vec[sl] = arr.ravel()
        return self.with_vector(vec)

    def mask(self, prefix) -> np.ndarray:
        """Boolean mask over the flat vector for segments under `prefix`."""
        out = np.zeros(self.size, dtype=bool)
        for n in self.names:
            if n.startswith(prefix):
                out[self._slices[n][0]] = True
        return out

    def zero_outside(self, vector, prefixes) -> np.ndarray:
        """Zero, in place, the slices of `vector` whose segment name starts
        with none of `prefixes`; returns `vector`."""
        prefixes = tuple(prefixes)
        for n in self.names:
            if not n.startswith(prefixes):
                vector[self._slices[n][0]] = 0.0
        return vector

    def segment_of_index(self, d) -> str:
        for n in self.names:
            sl, _ = self._slices[n]
            if sl.start <= d < sl.stop:
                return n
        raise IndexError(d)

    def lift(self, tape) -> dict:
        """Leaf Vars per segment, for building a differentiable expression.

        Each leaf holds a read-only view of its segment, not a copy.
        """
        view = {}
        for n in self.names:
            value = self.get(n)
            value.flags.writeable = False
            view[n] = tape.leaf(value, name=n)
        return view

    def collect_grad(self, view) -> np.ndarray:
        """Flat gradient aligned with this vector from a lifted view after
        backward; a leaf the output does not depend on reads zeros. Each
        segment is written once, so the vector is never zero-filled first."""
        out = np.empty(self.size)
        for n in self.names:
            g = view[n].grad
            out[self._slices[n][0]] = 0.0 if g is None else g.ravel()
        return out


# ---------------------------------------------------------------------------
# gradient checking


def finite_difference_gradient(fn, vector, h=1e-5) -> np.ndarray:
    """Central difference (fn(v + h e_d) - fn(v - h e_d)) / 2h per coordinate."""
    if h <= 0:
        raise DomainError("finite differences need h > 0")
    vector = _as_array(vector).copy()
    out = np.zeros_like(vector)
    for d in range(vector.size):
        orig = vector[d]
        vector[d] = orig + h
        hi = fn(vector)
        vector[d] = orig - h
        lo = fn(vector)
        vector[d] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericalError(f"non-finite evaluation in finite differences at coordinate {d}")
        out[d] = (hi - lo) / (2.0 * h)
    return out


def value_and_grad(fn, params: ParamVector):
    """Evaluate fn(view) on a fresh tape and return (scalar value, flat gradient).

    fn receives a mapping name -> Var and must return a scalar Var.
    """
    tape = Tape()
    view = params.lift(tape)
    out = fn(view)
    if not isinstance(out, Var):
        raise UsageError("objective did not touch any parameter; expected a Var output")
    backward(out)
    return float(out.value), params.collect_grad(view)


def random_check_network(seed: int):
    """Random small network touching every primitive; used by gradient self-checks.

    Returns (fn, params) where fn maps a lifted view to a scalar Var and
    params has at most ~100 coordinates.
    """
    rng = np.random.default_rng([int(seed), 7919])
    n_in = int(rng.integers(2, 4))
    n_h = int(rng.integers(2, 5))
    n_rows = int(rng.integers(2, 4))
    x0 = rng.normal(size=(n_rows, n_in)) * 0.8
    table_idx = rng.integers(0, 5, size=int(rng.integers(2, 5)))
    params = ParamVector.build({
        "w1": rng.normal(size=(n_in, n_h)) * 0.6,
        "b1": rng.normal(size=(n_h,)) * 0.3,
        "w2": rng.normal(size=(n_h, n_h)) * 0.6,
        "b2": rng.normal(size=(n_h,)) * 0.3,
        "w3": rng.normal(size=(n_h, 2)) * 0.6,
        "table": rng.normal(size=(5,)) * 0.7,
        "scale": rng.normal(size=()) * 0.5,
    })
    bits = (rng.random(size=(2, n_rows, 2)) < 0.5).astype(np.float64)  # broadcasts over logits

    def fn(view):
        h1 = tanh(affine(x0, view["w1"], view["b1"]))
        h2 = tanh(affine(h1, view["w2"], view["b2"]))
        grown = exp(mul(h2, view["scale"]))
        ratio = mul(grown, exp(neg(logsumexp(grown, axis=1, keepdims=True))))
        squashed = log_sigmoid(matmul(ratio, view["w3"]))
        picked = gather(view["table"], table_idx)
        flat = reshape(squashed, (-1,))
        coins = bernoulli_logpmf(bits, matmul(ratio, view["w3"]))
        return add(
            add(logsumexp(flat), tsum(coins)),
            sub(tsum(mul(picked, picked)), neg(tmean(ratio))),
        )

    return fn, params
