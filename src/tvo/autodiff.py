"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tape records primitive operations in construction order, which is already a
topological order, so the backward pass is one reversed sweep over the node
list. Gradient slots start at zero and accumulate, so a leaf used several
times (shared weights) gets the sum of its contributions.

Every primitive dispatches on its arguments: given plain numpy arrays it
returns a plain array (fast path used for sampling and evaluation), given a
Var it records the operation on that Var's tape. Model code is therefore
written once and runs in both modes.
"""
from __future__ import annotations

import math

import numpy as np

from . import util
from .errors import DomainError, NumericalError, ShapeError, UsageError

__all__ = [
    "TILE", "Tape", "Var", "backward", "add", "sub", "mul", "div", "neg", "matmul",
    "affine", "tsum", "tmean", "exp", "log", "sigmoid", "tanh", "log_sigmoid",
    "bernoulli_logpmf", "logsumexp", "log_softmax", "gather", "reshape", "value_of",
    "ParamVector", "finite_difference_gradient", "value_and_grad",
    "random_check_network",
]

# Elements per tile of a large elementwise kernel: 512 KB of float64, so the
# few temporaries of one tile stay in cache instead of streaming through
# memory once per pass.
TILE = 1 << 16


class Tape:
    """Append-only record of primitive operations."""

    __slots__ = ("nodes", "_backward_done")

    def __init__(self):
        self.nodes = []
        self._backward_done = False

    def leaf(self, value, name=None) -> "Var":
        return Var(self, _as_array(value), op=name or "leaf")


class Var:
    """One node of the recorded computation: a float64 array plus its adjoint slot."""

    __slots__ = ("tape", "value", "grad", "op", "_parents", "_vjp")
    __array_ufunc__ = None  # keep numpy from hijacking ndarray <op> Var

    def __init__(self, tape, value, parents=(), vjp=None, op="leaf"):
        self.tape = tape
        self.value = value
        self.grad = None
        self.op = op
        self._parents = parents
        self._vjp = vjp
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    # arithmetic sugar; constants may sit on either side
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __repr__(self):
        return f"Var(op={self.op}, shape={self.value.shape})"


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def value_of(x) -> np.ndarray:
    """Underlying array of a Var or plain input."""
    return x.value if isinstance(x, Var) else _as_array(x)


def _tape_of(*args):
    for a in args:
        if isinstance(a, Var):
            return a.tape
    return None


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


def backward(out: Var) -> None:
    """Accumulate d(out)/d(node) into .grad for every node reaching `out`.

    `out` must be a scalar. One backward pass per tape; each node is visited
    exactly once, in reverse construction order.

    A parent's first contribution is stored as its slot without a copy. A vjp
    returns fresh arrays, or (add, reshape) its incoming gradient or a view of
    it, which other nodes' slots may share; such a borrowed slot is replaced
    by a new sum on its next contribution instead of being added to in place.
    """
    if not isinstance(out, Var):
        raise UsageError("backward requires a Var produced by a forward evaluation")
    tape = out.tape
    if tape._backward_done:
        raise UsageError("backward already ran on this tape; build a fresh tape")
    if out.value.size != 1:
        raise UsageError(f"backward requires a scalar output, got shape {out.value.shape}")
    out.grad = np.ones_like(out.value)
    owned = set()  # ids of nodes whose slot no other node can see
    for node in reversed(tape.nodes):
        if node.grad is None or node._vjp is None:
            continue
        for parent, pgrad in zip(node._parents, node._vjp(node.grad)):
            if parent.grad is None:
                parent.grad = pgrad
                if pgrad is not node.grad and pgrad.base is None:
                    owned.add(id(parent))
            elif id(parent) in owned:
                parent.grad += pgrad
            else:
                parent.grad = parent.grad + pgrad
                owned.add(id(parent))
    tape._backward_done = True


def grad_of(var: Var) -> np.ndarray:
    """Gradient slot of a leaf after backward; zeros if the leaf was unused."""
    if not var.tape._backward_done:
        raise UsageError("gradient requested before backward ran on this tape")
    return var.grad if var.grad is not None else np.zeros_like(var.value)


# ---------------------------------------------------------------------------
# primitives


def _record(tape, value, parents, vjp, op):
    return Var(tape, value, parents=parents, vjp=vjp, op=op)


def add(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    out = av + bv
    if tape is None:
        return out
    parents, slots = [], []
    if isinstance(a, Var):
        parents.append(a)
        slots.append(av.shape)
    if isinstance(b, Var):
        parents.append(b)
        slots.append(bv.shape)

    def vjp(g):
        return [_unbroadcast(g, s) for s in slots]

    return _record(tape, out, tuple(parents), vjp, "add")


def sub(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    out = av - bv
    if tape is None:
        return out
    parents, signs, shapes = [], [], []
    if isinstance(a, Var):
        parents.append(a), signs.append(1.0), shapes.append(av.shape)
    if isinstance(b, Var):
        parents.append(b), signs.append(-1.0), shapes.append(bv.shape)

    def vjp(g):
        return [_unbroadcast(s * g, sh) for s, sh in zip(signs, shapes)]

    return _record(tape, out, tuple(parents), vjp, "sub")


def mul(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    out = av * bv
    if tape is None:
        return out
    parents, others, shapes = [], [], []
    if isinstance(a, Var):
        parents.append(a), others.append(bv), shapes.append(av.shape)
    if isinstance(b, Var):
        parents.append(b), others.append(av), shapes.append(bv.shape)

    def vjp(g):
        return [_unbroadcast(g * o, sh) for o, sh in zip(others, shapes)]

    return _record(tape, out, tuple(parents), vjp, "mul")


def div(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    out = av / bv
    if tape is None:
        return out
    parents, kinds, shapes = [], [], []
    if isinstance(a, Var):
        parents.append(a), kinds.append("num"), shapes.append(av.shape)
    if isinstance(b, Var):
        parents.append(b), kinds.append("den"), shapes.append(bv.shape)

    def vjp(g):
        grads = []
        for kind, sh in zip(kinds, shapes):
            if kind == "num":
                grads.append(_unbroadcast(g / bv, sh))
            else:
                grads.append(_unbroadcast(-g * av / (bv * bv), sh))
        return grads

    return _record(tape, out, tuple(parents), vjp, "div")


def neg(a):
    tape = _tape_of(a)
    out = -value_of(a)
    if tape is None:
        return out
    return _record(tape, out, (a,), lambda g: [-g], "neg")


def matmul(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} @ {bv.shape}")
    out = av @ bv
    if tape is None:
        return out
    parents, kinds = [], []
    if isinstance(a, Var):
        parents.append(a), kinds.append("left")
    if isinstance(b, Var):
        parents.append(b), kinds.append("right")

    def vjp(g):
        grads = []
        for kind in kinds:
            grads.append(g @ bv.T if kind == "left" else av.T @ g)
        return grads

    return _record(tape, out, tuple(parents), vjp, "matmul")


def affine(x, w, b):
    """x @ w + b for a 2-d x, 2-d w and bias row b: one dense layer, one node.

    The bias is added in place to the fresh product, so the value is bit for
    bit that of add(matmul(x, w), b) without a second (n, d_out) array, and
    the vjp (g @ w.T, x.T @ g, g summed over rows) gives the same gradients.
    """
    tape = _tape_of(x, w, b)
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise ShapeError(f"affine: incompatible shapes {xv.shape} @ {wv.shape} + {bv.shape}")
    out = xv @ wv
    out += bv
    if tape is None:
        return out
    parents, kinds = [], []
    for parent, kind in ((x, "x"), (w, "w"), (b, "b")):
        if isinstance(parent, Var):
            parents.append(parent), kinds.append(kind)

    def vjp(g):
        grads = []
        for kind in kinds:
            if kind == "x":
                grads.append(g @ wv.T)
            elif kind == "w":
                grads.append(xv.T @ g)
            else:
                grads.append(g.sum(axis=0))
        return grads

    return _record(tape, out, tuple(parents), vjp, "affine")


def tsum(a, axis=None, keepdims=False):
    tape = _tape_of(a)
    av = value_of(a)
    out = np.sum(av, axis=axis, keepdims=keepdims)
    if tape is None:
        return out

    def vjp(g):
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(g, axis)
        if not keepdims and axis is None:
            gg = np.asarray(g).reshape((1,) * av.ndim)
        return [np.broadcast_to(gg, av.shape).copy()]

    return _record(tape, np.asarray(out), (a,), vjp, "sum")


def tmean(a, axis=None, keepdims=False):
    av = value_of(a)
    n = av.size if axis is None else av.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def exp(a):
    tape = _tape_of(a)
    out = np.exp(value_of(a))
    if tape is None:
        return out
    return _record(tape, out, (a,), lambda g: [g * out], "exp")


def log(a):
    tape = _tape_of(a)
    av = value_of(a)
    with np.errstate(divide="ignore"):
        out = np.log(av)
    if tape is None:
        return out
    return _record(tape, out, (a,), lambda g: [g / av], "log")


def sigmoid(a):
    tape = _tape_of(a)
    av = value_of(a)
    out = util.sigmoid(av)
    if tape is None:
        return out
    return _record(tape, out, (a,), lambda g: [g * out * (1.0 - out)], "sigmoid")


def tanh(a):
    tape = _tape_of(a)
    out = np.tanh(value_of(a))
    if tape is None:
        return out
    return _record(tape, out, (a,), lambda g: [g * (1.0 - out * out)], "tanh")


def log_sigmoid(a):
    """log(sigmoid(a)), stable on both tails."""
    tape = _tape_of(a)
    av = value_of(a)
    out = util.log_sigmoid(av)
    if tape is None:
        return out
    sig_neg = util.sigmoid(-av)  # d/dx log sigmoid(x) = sigmoid(-x)
    return _record(tape, out, (a,), lambda g: [g * sig_neg], "log_sigmoid")


def bernoulli_logpmf(y, logits):
    """sum_i log Bernoulli(y_i | sigmoid(t_i)) over the last axis, one tape node.

    For binary y this is exactly -sum(logaddexp(0, (1 - 2y) t)), evaluated in
    the stable form max(s, 0) + log1p(exp(-|s|)). y is constant data; logits
    may broadcast against it (a shared prior row, one encoder row per datum).
    The vjp is g * (y - sigmoid(t)), reduced back to the logits' shape.

    A tape-free call of more than TILE elements runs in tiles of whole rows
    (one row per leading index), at most TILE elements each unless one row
    is longer, into one preallocated output; a taped call, or one of at
    most TILE elements, is one tile. Each element sees the same operations
    and each row is summed on its own, so tiling changes no bit of the value.
    """
    if isinstance(y, Var):
        raise UsageError("bernoulli_logpmf: y must be constant observations, not a Var")
    tape = _tape_of(logits)
    yv, tv = _as_array(y), value_of(logits)
    sign = 1.0 - 2.0 * yv  # turns t into the log-odds against the observed value
    if tape is None:
        shape = np.broadcast(sign, tv).shape
        if math.prod(shape) > TILE:
            out = np.empty(shape[:-1])
            _bernoulli_tiles(np.broadcast_to(sign, shape), np.broadcast_to(tv, shape), out)
            return out
    out = _bernoulli_rows(sign, tv)
    if tape is None:
        return out

    def vjp(g):
        return [_unbroadcast(np.asarray(g)[..., None] * (yv - util.sigmoid(tv)), tv.shape)]

    return _record(tape, np.asarray(out), (logits,), vjp, "bernoulli_logpmf")


def _bernoulli_rows(sign, t, out=None):
    """-sum(max(s, 0) + log1p(exp(-|s|)), axis=-1) with s = sign * t, into
    `out` when given."""
    s = sign * t
    tail = np.abs(s)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.maximum(s, 0.0, out=s)
    s += tail
    return np.negative(np.sum(s, axis=-1, out=out), out=out)


def _bernoulli_tiles(sign, t, out):
    """_bernoulli_rows over the first axis in slices of at most TILE elements;
    an index of the first axis that alone holds more is split along the next."""
    step = TILE // sign[0].size if out.ndim else 0
    if step:
        for lo in range(0, out.shape[0], step):
            _bernoulli_rows(sign[lo:lo + step], t[lo:lo + step], out[lo:lo + step])
    elif out.ndim > 0:
        for i in range(out.shape[0]):
            _bernoulli_tiles(sign[i], t[i], out[i, ...])
    else:
        _bernoulli_rows(sign, t, out)


def logsumexp(a, axis=None, keepdims=False):
    tape = _tape_of(a)
    av = value_of(a)
    m = np.max(av, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    shifted = np.where(av == -np.inf, -np.inf, av - m_safe)
    with np.errstate(divide="ignore"):
        total = np.sum(np.exp(shifted), axis=axis, keepdims=True)
        out_k = np.where(np.isfinite(m), m_safe + np.log(total), m)
    out = out_k if keepdims else (np.squeeze(out_k, axis=axis) if axis is not None else out_k.reshape(()))
    if tape is None:
        return out
    with np.errstate(invalid="ignore"):
        soft = np.where(av == -np.inf, 0.0, np.exp(av - np.where(np.isfinite(out_k), out_k, 0.0)))

    def vjp(g):
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(g, axis)
        if not keepdims and axis is None:
            gg = np.asarray(g).reshape((1,) * av.ndim)
        return [gg * soft]

    return _record(tape, np.asarray(out), (a,), vjp, "logsumexp")


def log_softmax(a, axis=-1):
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def gather(a, idx):
    """Index/select along the first axis with an integer array; duplicate
    indices accumulate on the backward pass."""
    tape = _tape_of(a)
    av = value_of(a)
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"gather: index dtype must be integer, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[0]):
        raise ShapeError(f"gather: index out of range for axis of length {av.shape[0]}")
    out = av[idx]
    if tape is None:
        return out

    def vjp(g):
        acc = np.zeros_like(av)
        np.add.at(acc, idx, g)
        return [acc]

    return _record(tape, out, (a,), vjp, "gather")


def reshape(a, shape):
    tape = _tape_of(a)
    av = value_of(a)
    out = av.reshape(shape)
    if tape is None:
        return out
    return _record(tape, out, (a,), lambda g: [g.reshape(av.shape)], "reshape")


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
        return ParamVector(self.names, self.shapes, vector)

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
        """Flat gradient aligned with this vector from a lifted view after backward."""
        out = np.zeros(self.size)
        for n in self.names:
            sl, _ = self._slices[n]
            g = view[n].grad
            if g is not None:
                out[sl] = g.ravel()
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
        h2 = sigmoid(affine(h1, view["w2"], view["b2"]))
        safe = log(add(h2, 1.5))
        grown = exp(mul(safe, view["scale"]))
        denom = add(1.5, sigmoid(tsum(grown, axis=1, keepdims=True)))
        ratio = div(grown, denom)
        squashed = log_sigmoid(matmul(ratio, view["w3"]))
        picked = gather(view["table"], table_idx)
        flat = reshape(squashed, (-1,))
        coins = bernoulli_logpmf(bits, matmul(ratio, view["w3"]))
        return add(
            add(logsumexp(flat), tsum(coins)),
            sub(tsum(mul(picked, picked)), neg(tmean(ratio))),
        )

    return fn, params
