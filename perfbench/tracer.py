"""Outside-in tracer: wraps public functions of the tvo package from here.

Nothing under src/ changes. `Tracer.install` replaces each traced function
in every tvo module namespace that holds it (so `from .x import f` copies are
covered too) and each traced model method on its class; `uninstall` puts the
originals back. Spans are kept in memory as [name, start, end, parent] rows
and written out by the caller when the run ends.
"""
from __future__ import annotations

import collections
import sys
import time
from contextlib import contextmanager

# (home module, function name, span name)
FUNCTIONS = (
    ("tvo.autodiff", "backward", "autodiff.backward"),
    ("tvo.estimators", "tempered_columns", "estimators.temper"),
    ("tvo.estimators", "build_weight_table", "estimators.weight_table"),
    ("tvo.estimators", "reparam_gradient", "estimators.reparam"),
    ("tvo.objectives", "training_step", "objectives.training_step"),
    ("tvo.trainer", "adam_step", "trainer.adam"),
    ("tvo.trainer", "evaluate", "trainer.evaluate"),
    ("tvo.path", "integrand_curve", "path.integrand_curve"),
)

# model methods; log densities split into numeric scoring and taped forward
# by whether the parameter view holds autodiff.Var values
MODEL_CLASSES = ("SigmoidBeliefNet", "GaussianVAE")
SCORING_METHODS = ("log_joint", "log_q")
TAPED_METHODS = ("reparam_sample",)
SAMPLING_METHODS = ("sample_q",)


def tvo_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "tvo" or name.startswith("tvo."))]


def namespace_snapshot():
    """Identity of every attribute of every tvo module and of the classes they hold.

    Equal snapshots before and after a traced run show that no wrapper was left behind.
    """
    out = {}
    for mod in tvo_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = id(value)
            if isinstance(value, type):
                for meth, impl in vars(value).items():
                    out[(mod.__name__, attr, meth)] = id(impl)
    return out


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.tapes = []          # (nodes, bytes, Counter of ops) per flushed iteration
        self._stack = []
        self._patches = None     # (namespace, attribute, original, wrapper)
        self._installed = False
        self._pending_tapes = []

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        traced.__wrapped__ = fn
        return traced

    def _wrap_backward(self, fn, name):
        traced = self._wrap(fn, name)

        def backward(out, *args, **kwargs):
            self._pending_tapes.append(out.tape)
            return traced(out, *args, **kwargs)
        backward.__wrapped__ = fn
        return backward

    def _wrap_model(self, fn, numeric_name, taped_name):
        var_type = sys.modules["tvo.autodiff"].Var
        numeric = self._wrap(fn, numeric_name)
        taped = self._wrap(fn, taped_name)

        def method(model, view, *args, **kwargs):
            first = next(iter(view.values())) if isinstance(view, dict) and view else None
            impl = taped if isinstance(first, var_type) else numeric
            return impl(model, view, *args, **kwargs)
        method.__wrapped__ = fn
        return method

    # -- tape accounting (outside every span) ----------------------------

    def flush_tapes(self):
        """Count the nodes of tapes passed to backward since the last flush."""
        nodes, nbytes, ops = 0, 0, collections.Counter()
        for tape in self._pending_tapes:
            for node in tape.nodes:
                nodes += 1
                nbytes += node.value.nbytes
                ops[node.op if node._parents else "leaf"] += 1
        self._pending_tapes = []
        self.tapes.append((nodes, nbytes, ops))

    # -- installation ----------------------------------------------------

    def _plan(self):
        """(namespace, attribute, original, wrapper) for every traced name."""
        plan = []
        modules = tvo_modules()
        for home, fname, span_name in FUNCTIONS:
            original = getattr(sys.modules[home], fname)
            make = self._wrap_backward if fname == "backward" else self._wrap
            wrapper = make(original, span_name)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        plan.append((mod, attr, original, wrapper))
        models = sys.modules["tvo.models"]
        for cls_name in MODEL_CLASSES:
            cls = getattr(models, cls_name)
            for meth, wrapper in self._model_wrappers(cls):
                plan.append((cls, meth, cls.__dict__[meth], wrapper))
        return plan

    def _model_wrappers(self, cls):
        for meth in SCORING_METHODS:
            yield meth, self._wrap_model(cls.__dict__[meth], "models.score", "models.taped_fwd")
        for meth in TAPED_METHODS:
            if meth in cls.__dict__:
                yield meth, self._wrap(cls.__dict__[meth], "models.taped_fwd")
        for meth in SAMPLING_METHODS:
            yield meth, self._wrap(cls.__dict__[meth], "models.sample_q")

    def install(self):
        """Put the wrappers in place; the plan is built on the first call."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches or []):
            setattr(owner, attr, original)
        self._installed = False

    # -- analysis --------------------------------------------------------

    def durations(self):
        """(duration, self time, root index) per span, in seconds."""
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        root = list(range(n))
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
                root[i] = root[parent]
        return [(dur[i], dur[i] - child[i], root[i]) for i in range(n)]

    def rows(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]} for s in self.spans]
