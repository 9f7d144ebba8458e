"""Small numpy helpers, deterministic RNG stream derivation and the run-table writer."""
from __future__ import annotations

import json
import os

import numpy as np


def rng_stream(seed, *stream) -> np.random.Generator:
    """Generator for (seed, *stream).

    Distinct stream tuples give statistically independent streams; identical
    tuples reproduce the same draws bit for bit.
    """
    parts = [int(seed)] + [int(s) for s in stream]
    if any(p < 0 for p in parts):
        raise ValueError("seed components must be non-negative")
    return np.random.default_rng(parts)


def softmax(v, axis=-1):
    v = np.asarray(v, dtype=np.float64)
    m = np.max(v, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(v - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def sigmoid(v):
    """1 / (1 + exp(-v)) from e = exp(-|v|): 1 / (1 + e) for v >= 0, else
    e / (1 + e), so neither tail overflows.

    The numerator is max(e, v >= 0), exact because e <= 1 (nan stays nan).
    np.where is not branch-free in numpy: on random-sign input it costs
    about five times an elementwise maximum. e and the result share one
    buffer; 0-d input gives a scalar.
    """
    v = np.asarray(v, dtype=np.float64)
    e = np.abs(v, out=np.empty_like(v))
    np.exp(np.negative(e, out=e), out=e)
    return sigmoid_of_tail(e, v, np.empty_like(e))[()]


def sigmoid_of_tail(e, v, den):
    """sigmoid(v) = max(e, v >= 0) / (1 + e) from e = exp(-|v|), written
    over e; `den` is the scratch array that takes 1 + e."""
    np.add(e, 1.0, out=den)
    np.maximum(e, v >= 0, out=e)
    return np.divide(e, den, out=e)


def log_sigmoid(v):
    """log(sigmoid(v)) without overflow on either tail."""
    v = np.asarray(v, dtype=np.float64)
    return np.where(v >= 0, -np.log1p(np.exp(-np.abs(v))), v - np.log1p(np.exp(-np.abs(v))))


def effective_sample_size(normalized_weights, axis=-1):
    w = np.asarray(normalized_weights, dtype=np.float64)
    return 1.0 / np.sum(w * w, axis=axis)


def format_cell(x) -> str:
    """CSV cell: shortest round-trip repr for floats, empty string for None."""
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows, jsonl=False):
    """`header` and `rows` as CSV at `path`, its directory made if missing;
    `jsonl` also writes the JSON-lines mirror beside it (.csv -> .jsonl), one
    record per row."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(c) for c in row) + "\n")
    if jsonl:
        with open(os.path.splitext(path)[0] + ".jsonl", "w") as fh:
            for row in rows:
                fh.write(json.dumps({k: float(v) if isinstance(v, (float, np.floating)) else v
                                     for k, v in zip(header, row)}) + "\n")
