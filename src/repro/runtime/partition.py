"""Gang-loop partitioner for multi-device execution.

Splits a statically race-free launch (one the vectorizer accepted — its
:class:`~repro.device.vectorize.VectorPlan` proved every array write
one-element-per-thread) into per-device contiguous lane ranges, and predicts
each shard's per-array read/write footprints by re-evaluating the plan's
retained subscript ASTs over just that shard's lanes — the same vector
expression closures the SIMT executor uses, so the prediction matches what
the shard will actually touch.

The probe is conservative by construction:

* only partition index variables are seeded (they are immutable inside the
  body — the analysis rejects stores to them); any other name, any array
  gather, or any runtime bailout makes that access *unevaluable* and the
  footprint falls back to the whole array;
* branch guards are ignored, so the footprint covers every lane whether or
  not it takes the access (a superset of the true footprint);
* index components are clipped into the array's bounds, mirroring how the
  guarded accesses that survive at runtime stay in bounds.

``needed`` (reads + planned writes) drives the pre-launch halo exchange;
``planned`` (the write tuple alone) drives post-launch replica invalidation
when a shard's byte-exact write set is unavailable.  Planned writes ride in
``needed`` deliberately: revalidating a shard's replica over everything it
may write makes the post-launch scratch diff byte-identical to the
single-device diff (a write of an identical value stays invisible on every
device count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.device import vectorize
from repro.runtime.intervals import IntervalSet

__all__ = ["ShardFootprint", "shard_ranges", "shard_footprints", "plan_pulls"]


@dataclass
class ShardFootprint:
    """Predicted element intervals one shard touches in one array.

    ``needed`` — elements the shard may read or write (None = whole array);
    ``planned`` — elements the shard may write (only for written arrays);
    ``exact`` — False when any access was unevaluable and a whole-array
    fallback was taken."""

    needed: Optional[IntervalSet]
    planned: Optional[IntervalSet]
    written: bool
    exact: bool


def shard_ranges(nthreads: int, ndevices: int) -> List[Tuple[int, int]]:
    """Contiguous balanced split of lane indices ``[0, nthreads)`` into
    ``ndevices`` half-open ranges (earlier shards absorb the remainder).
    Ranges may be empty when there are fewer lanes than devices."""
    if ndevices < 1:
        raise ValueError("ndevices must be >= 1")
    base, rem = divmod(max(0, nthreads), ndevices)
    out: List[Tuple[int, int]] = []
    lo = 0
    for d in range(ndevices):
        hi = lo + base + (1 if d < rem else 0)
        out.append((lo, hi))
        lo = hi
    return out


def _runs_to_intervals(flat: np.ndarray) -> IntervalSet:
    """Sorted unique flat indices -> coalesced [start, stop) intervals."""
    out = IntervalSet()
    if flat.size == 0:
        return out
    uniq = np.unique(flat)
    breaks = np.flatnonzero(np.diff(uniq) != 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [uniq.size - 1]))
    ivs = [(int(uniq[a]), int(uniq[b]) + 1) for a, b in zip(starts, stops)]
    out_ivs = ivs  # already sorted and disjoint
    out._ivs = out_ivs
    return out


def _eval_tuple(comps, ctx, sel, shape) -> Optional[IntervalSet]:
    """Evaluate one subscript-component tuple over the probe lanes; None
    when any component is unevaluable."""
    n = len(sel)
    if n == 0:
        return IntervalSet()
    flat = None
    try:
        for comp, dim in zip(comps, shape):
            val = vectorize._vec_expr(comp)(ctx, sel)
            if isinstance(val, np.ndarray):
                if val.dtype.kind not in "iu":
                    return None
                idx = val.astype(np.int64)
            else:
                if isinstance(val, float):
                    return None
                idx = np.full(n, int(val), np.int64)
            # Branch-guard overapproximation: lanes that would not take the
            # access at runtime can hold out-of-bounds components; clipping
            # keeps them inside the array, preserving the superset property
            # for the lanes that do take it.
            np.clip(idx, 0, max(0, dim - 1), out=idx)
            flat = idx if flat is None else flat * dim + idx
    except (KeyError, IndexError, vectorize.VectorBailout, ZeroDivisionError,
            TypeError, ValueError):
        return None
    if flat is None:  # zero-dimensional access cannot occur (ndims checked)
        return None
    return _runs_to_intervals(flat)


def shard_footprints(spec, plan, shards: List[Tuple[int, int]]
                     ) -> List[Dict[str, ShardFootprint]]:
    """Per-shard, per-array footprints for one launch.  ``plan`` is the
    launch's :class:`~repro.device.vectorize.VectorPlan`; ``shards`` the
    lane ranges from :func:`shard_ranges`.  Keys are kernel-local array
    names (``spec.array_names`` maps them to canonical ones)."""
    out: List[Dict[str, ShardFootprint]] = []
    for lo, hi in shards:
        lanes = spec.space[lo:hi]
        n = len(lanes)
        ctx = vectorize._Ctx(n, {}, dict(spec.scalars))
        for var, reg in zip(spec.index_vars, lanes.registers()):
            ctx.regs[var] = reg
        sel = np.arange(n)
        per_array: Dict[str, ShardFootprint] = {}
        for root, tuples in plan.accesses.items():
            shape = spec.arrays[root].shape
            size = int(spec.arrays[root].size)
            written = root in plan.written_arrays
            needed: Optional[IntervalSet] = IntervalSet()
            exact = True
            for comps in tuples:
                ivs = _eval_tuple(comps, ctx, sel, shape)
                if ivs is None:
                    needed = None
                    exact = False
                    break
                needed = needed.union(ivs)
            planned: Optional[IntervalSet] = None
            if written:
                wivs = _eval_tuple(plan.write_tuples[root], ctx, sel, shape)
                if wivs is None:
                    planned = IntervalSet([(0, size)])
                    exact = False
                else:
                    planned = wivs
            if needed is None:
                needed = IntervalSet([(0, size)])
            per_array[root] = ShardFootprint(needed, planned, written, exact)
        out.append(per_array)
    return out


def plan_pulls(needed: IntervalSet, stale: List[IntervalSet], dst: int
               ) -> Tuple[List[Tuple[int, IntervalSet]], IntervalSet]:
    """Minimal halo-exchange plan: which intervals device ``dst`` must pull
    from which sources to become fresh over ``needed``.  ``stale[d]`` is
    device ``d``'s stale set.  Returns ``(copies, unsatisfied)`` where the
    union of copied intervals equals ``needed & stale[dst]`` minus
    ``unsatisfied`` (nonempty only on a replica-invariant breach)."""
    missing = needed.intersection(stale[dst])
    copies: List[Tuple[int, IntervalSet]] = []
    for src in range(len(stale)):
        if src == dst or not missing:
            continue
        avail = missing.difference(stale[src])
        if not avail:
            continue
        copies.append((src, avail))
        missing = missing.difference(avail)
    return copies, missing
