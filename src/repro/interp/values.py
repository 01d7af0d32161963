"""Host memory environment.

Scalars live in a scope stack; arrays are numpy buffers allocated when their
declaration executes (symbolic dimensions resolve against program parameters
and already-bound scalars).  Pointers are bindings to arrays; the
environment can map any value back to its *canonical* array name, which is
what the runtime's whole-array coherence tracking is keyed on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import InterpError
from repro.lang import semantics
from repro.lang.ctypes import Array, CType, Pointer, Scalar


class HostEnv:
    """Name resolution + storage for one function activation."""

    def __init__(self, params: Optional[Dict[str, object]] = None,
                 call_handler: Optional[Callable] = None):
        self.params = dict(params or {})
        self.scopes: List[Dict[str, object]] = [{}]
        # Coercion dtype of each visible scalar name (the innermost
        # declaration's).  ``shadowed`` runs parallel to ``scopes``: the
        # entries a scope's declarations replaced, put back when it pops.
        self.dtypes: Dict[str, object] = {}
        self.shadowed: List[Dict[str, object]] = [{}]
        self.canonical: Dict[int, str] = {}   # id(ndarray) -> declared name
        self.stdout: List[str] = []
        self._call_handler = call_handler

    # -- scope management ----------------------------------------------------
    def push_scope(self) -> None:
        self.scopes.append({})
        self.shadowed.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()
        for name, dtype in self.shadowed.pop().items():
            if dtype is None:
                self.dtypes.pop(name, None)
            else:
                self.dtypes[name] = dtype

    def _find_scope(self, name: str) -> Optional[Dict[str, object]]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope
        return None

    # -- declaration ---------------------------------------------------------
    def declare(self, name: str, ctype: Optional[CType], value=None) -> None:
        scope = self.scopes[-1]
        self.shadowed[-1].setdefault(name, self.dtypes.get(name))
        if isinstance(ctype, Scalar):
            self.dtypes[name] = ctype.dtype
        else:
            self.dtypes.pop(name, None)
        if isinstance(ctype, Array):
            shape = self._resolve_shape(ctype, name)
            preset = self.params.get(name)
            if isinstance(preset, np.ndarray):
                if preset.shape != shape:
                    raise InterpError(
                        f"parameter array '{name}' has shape {preset.shape}, "
                        f"declaration wants {shape}"
                    )
                # Always copy: program runs must never mutate caller-owned
                # parameter arrays (re-runs depend on pristine inputs).
                array = np.array(preset, dtype=ctype.elem.dtype, copy=True)
            else:
                array = np.zeros(shape, dtype=ctype.elem.dtype)
            scope[name] = array
            self.canonical.setdefault(id(array), name)
            return
        if isinstance(ctype, Pointer):
            scope[name] = value  # None until bound
            return
        # Scalar: parameter overrides take precedence over the initializer.
        if name in self.params and not isinstance(self.params[name], np.ndarray):
            value = self.params[name]
        if value is None:
            value = 0
        if isinstance(ctype, Scalar):
            value = np.dtype(ctype.dtype).type(value).item()
        scope[name] = value

    def _resolve_shape(self, ctype: Array, name: str):
        dims = []
        for d in ctype.dims:
            if isinstance(d, int):
                dims.append(d)
                continue
            try:
                dims.append(int(self.load(d)))
            except InterpError:
                if d in self.params:
                    dims.append(int(self.params[d]))
                else:
                    raise InterpError(
                        f"array '{name}': dimension '{d}' is unbound "
                        "(pass it as a program parameter)"
                    )
        return tuple(dims)

    # -- evaluator protocol ----------------------------------------------------
    def load(self, name: str):
        scope = self._find_scope(name)
        if scope is None:
            if name in self.params and not isinstance(self.params[name], np.ndarray):
                return self.params[name]
            raise InterpError(f"unbound name {name!r}")
        value = scope[name]
        if value is None:
            raise InterpError(f"use of unbound pointer {name!r}")
        return value

    def store(self, name: str, value) -> None:
        scope = self._find_scope(name)
        if scope is None:
            # Assignment to an undeclared name: C would reject it; we create
            # a function-scope binding to keep harness-generated code simple.
            scope = self.scopes[0]
        dtype = self.dtypes.get(name)
        if dtype is not None and not isinstance(value, np.ndarray):
            value = np.dtype(dtype).type(value).item()
        scope[name] = value

    def call(self, func: str, args):
        if self._call_handler is not None:
            handled, result = self._call_handler(func, args)
            if handled:
                return result
        if func == "printf":
            self.stdout.append(_format_printf(args))
            return 0
        return semantics.Builtins.call(func, args)

    # -- canonical array names -------------------------------------------------
    def canonical_name(self, name: str) -> str:
        """Resolve a (possibly pointer) name to the underlying array's
        declared name; scalars resolve to themselves."""
        scope = self._find_scope(name)
        if scope is None:
            return name
        value = scope[name]
        if isinstance(value, np.ndarray):
            return self.canonical.get(id(value), name)
        return name

    def array(self, name: str) -> np.ndarray:
        value = self.load(name)
        if not isinstance(value, np.ndarray):
            raise InterpError(f"{name!r} is not an array")
        return value

    # -- checkpoint support --------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Deep copy of the scope stack (checkpoint payload).

        Arrays are captured once per *object*, keyed by identity, so pointer
        bindings that alias one array restore as aliases of one array —
        copying per name would silently split them."""
        arrays: Dict[int, np.ndarray] = {}
        scopes = []
        for scope in self.scopes:
            entry = {}
            for name, value in scope.items():
                if isinstance(value, np.ndarray):
                    key = id(value)
                    if key not in arrays:
                        arrays[key] = value.copy()
                    entry[name] = ("array", key)
                else:
                    entry[name] = ("plain", value)
            scopes.append(entry)
        return {
            "scopes": scopes,
            "arrays": arrays,
            "canonical": {key: name for key, name in self.canonical.items()
                          if key in arrays},
            "dtypes": dict(self.dtypes),
            "shadowed": [dict(entry) for entry in self.shadowed],
            "stdout": list(self.stdout),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rewind to a :meth:`snapshot_state` capture.

        The scope-stack depth must match the capture point (restores happen
        at the same structural program point the snapshot was taken at).
        Array contents are copied *into* the currently bound objects when
        geometry matches — ``canonical`` is keyed by object identity, and
        device-side bookkeeping may hold the same references — and recreated
        from copies otherwise (a resume into a fresh process)."""
        from repro.errors import CheckpointError

        saved_scopes = state["scopes"]
        if len(saved_scopes) != len(self.scopes):
            raise CheckpointError(
                f"scope depth mismatch restoring checkpoint: snapshot has "
                f"{len(saved_scopes)} scopes, live environment has "
                f"{len(self.scopes)} (snapshot from a different program point?)"
            )
        live: Dict[int, np.ndarray] = {}
        claimed = set()
        for scope, entry in zip(self.scopes, saved_scopes):
            for name, (kind, ref) in entry.items():
                if kind != "array" or ref in live:
                    continue
                current = scope.get(name)
                saved = state["arrays"][ref]
                if (isinstance(current, np.ndarray)
                        and id(current) not in claimed
                        and current.shape == saved.shape
                        and current.dtype == saved.dtype):
                    live[ref] = current
                    claimed.add(id(current))
        for ref, saved in state["arrays"].items():
            target = live.get(ref)
            if target is None:
                live[ref] = saved.copy()
            else:
                np.copyto(target, saved, casting="no")
        for scope, entry in zip(self.scopes, saved_scopes):
            scope.clear()
            for name, (kind, ref) in entry.items():
                scope[name] = live[ref] if kind == "array" else ref
        self.dtypes = dict(state["dtypes"])
        self.shadowed = [dict(entry) for entry in state["shadowed"]]
        self.stdout[:] = state["stdout"]
        self.canonical = {id(live[ref]): name
                          for ref, name in state["canonical"].items()}


def _format_printf(args) -> str:
    if not args:
        return ""
    fmt, rest = args[0], args[1:]
    if not isinstance(fmt, str):
        return " ".join(str(a) for a in args)
    # C format -> Python %-format (good enough for benchmark output).
    pyfmt = fmt.replace("%lf", "%f").replace("%le", "%e").replace("%lld", "%d")
    try:
        return pyfmt % tuple(rest)
    except (TypeError, ValueError):
        return fmt + " " + " ".join(str(a) for a in rest)
