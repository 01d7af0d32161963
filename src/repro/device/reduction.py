"""Device-side reductions.

Recognized reductions give each thread a private partial which the engine
combines *pairwise, tree-shaped* — the order real GPU reductions use, and
deliberately different from the CPU's left-to-right order, so float results
differ by rounding.  That mismatch is precisely what §III-A's configurable
error margin exists for.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

IDENTITY = {
    "+": 0.0,
    "*": 1.0,
    "max": -math.inf,
    "min": math.inf,
    "&": ~0,
    "|": 0,
    "^": 0,
    "&&": 1,
    "||": 0,
}

_COMBINE = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "max": max,
    "min": min,
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}


def identity(op: str):
    return IDENTITY[op]


def combine(op: str, a, b):
    return _COMBINE[op](a, b)


# Float combines the NumPy tree runs level by level.  IEEE add and multiply
# are the same operation elementwise as on two scalars, and ``where`` picks
# exactly what Python's ``max``/``min`` pick: the first argument unless the
# second compares strictly greater (less), so NaN and signed zeros land alike.
_ARRAY_COMBINE = {
    "+": np.add,
    "*": np.multiply,
    "max": lambda x, y: np.where(y > x, y, x),
    "min": lambda x, y: np.where(y < x, y, x),
}


def tree_reduce(op: str, partials: Sequence, dtype=None) -> object:
    """Pairwise tree reduction (GPU order).

    With ``dtype`` float32, intermediate results round to single precision
    at every combine, like a real in-register reduction.

    A float array under ``+``, ``*``, ``max`` or ``min`` is reduced in NumPy,
    one tree level per step: ``a[0:m:2]`` combines with ``a[1:m:2]`` and an
    odd tail carries over, the same pairs in the same order as the scalar
    loop, so the result is bit-identical.  Integer, bitwise and logical
    reductions run the scalar loop on Python values: Python ints never wrap.
    """
    if isinstance(partials, np.ndarray):
        fn = _ARRAY_COMBINE.get(op)
        if (fn is not None and partials.dtype.kind == "f"
                and (dtype is None or np.dtype(dtype).kind == "f")):
            # The scalar loop combines Python floats (doubles) unless a
            # dtype rounds every step.
            work = np.float64 if dtype is None else dtype
            return _tree_reduce_array(op, fn, partials.astype(work, copy=False))
        partials = partials.tolist()
    return _tree_reduce_scalars(op, partials, dtype)


def _tree_reduce_array(op: str, fn, values: np.ndarray) -> object:
    if values.size == 0:
        return identity(op)
    while values.size > 1:
        m = values.size & ~1
        pairs = fn(values[0:m:2], values[1:m:2])
        values = (np.concatenate((pairs, values[m:])) if values.size & 1
                  else pairs)
    return values[0].item()


def _tree_reduce_scalars(op: str, partials: Sequence, dtype=None) -> object:
    """The scalar pairwise loop: every op, Python values."""
    fn = _COMBINE[op]
    if not partials:
        return identity(op)
    values: List = list(partials)
    if dtype is not None:
        values = [np.dtype(dtype).type(v) for v in values]
    while len(values) > 1:
        nxt = []
        for i in range(0, len(values) - 1, 2):
            v = fn(values[i], values[i + 1])
            if dtype is not None:
                v = np.dtype(dtype).type(v)
            nxt.append(v)
        if len(values) % 2:
            nxt.append(values[-1])
        values = nxt
    result = values[0]
    return result.item() if isinstance(result, np.generic) else result


def sequential_reduce(op: str, partials: Sequence, dtype=None) -> object:
    """Left-to-right reduction (CPU order) — the reference the tree order is
    compared against in tests."""
    fn = _COMBINE[op]
    acc = identity(op)
    if dtype is not None:
        acc = np.dtype(dtype).type(acc)
    for v in partials:
        acc = fn(acc, v)
        if dtype is not None:
            acc = np.dtype(dtype).type(acc)
    return acc.item() if isinstance(acc, np.generic) else acc
