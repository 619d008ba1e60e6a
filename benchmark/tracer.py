"""Per-layer spans recorded from outside the library.

Each traced layer is a library function (or method) that the tracer replaces,
at every module attribute that holds it, with a wrapper recording one span per
call: layer, start, end, parent span, op id and whether the call raised.
Nothing in ``src/`` is edited, and :meth:`Tracer.uninstall` restores the
originals.  Spans live in flat ``array`` buffers so a run with a few hundred
thousand spans stays small, and are written to a file when the run ends.

A layer whose function does not exist in the checked-out library is skipped
and reports zero calls, so the benchmark keeps running when a later change
removes or renames an internal helper.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# (layer, module inside nccausal, attribute path).  Hot inner helpers such as
# ``_segment_tau`` or ``Event`` are deliberately absent: wrapping them would
# measure the wrapper, not the layer.
LAYER_SITES = (
    ("finite_geometry.spectral_distance", "finite_geometry", "spectral_distance"),
    ("spacetime.lorentz_distance_functional", "spacetime", "lorentz_distance_functional"),
    ("spacetime.is_steep_function", "spacetime", "is_steep_function"),
    ("spacetime.ascend_proper_time", "spacetime", "_ascend_proper_time"),
    ("clifford.is_nsd", "clifford", "is_nsd"),
    ("clifford.steep_symbol", "clifford", "steep_symbol"),
    ("clifford.causal_symbol", "clifford", "causal_symbol"),
    ("product_causality.causally_related", "product_causality", "causally_related"),
    ("product_causality.reachable_longitudes", "product_causality", "reachable_longitudes"),
    ("product_causality.curve_oracle", "product_causality", "curve_oracle"),
    ("product_causality.separating_element_search", "product_causality", "separating_element_search"),
    ("product_causality.CausalElement.is_certified", "product_causality", "CausalElement.is_certified"),
    ("product_causality.product_symbol", "product_causality", "product_symbol"),
    ("scene", "scene", "default_scene"),
    ("scene", "scene", "load_scene"),
    ("verify.clifford", "verify", "verify_clifford"),
    ("verify.finite", "verify", "verify_finite"),
    ("verify.spacetime", "verify", "verify_spacetime"),
    ("verify.product", "verify", "verify_product"),
    ("cli", "cli", "main"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_SITES))


class Tracer:
    """Installs span-recording wrappers into the imported ``nccausal`` modules."""

    def __init__(self) -> None:
        self.layer = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.outer = array("b")  # 1 when no enclosing span has the same layer
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list[int] = []
        self._depth = [0] * len(LAYERS)
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, layer_id: int, fn):
        layer, parent, op, raised, outer = (
            self.layer, self.parent, self.op, self.raised, self.outer
        )
        start, end, stack, depth = self.start, self.end, self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            raised.append(0)
            outer.append(depth[layer_id] == 0)
            end.append(0.0)
            depth[layer_id] += 1
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
                depth[layer_id] -= 1

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "nccausal" or name.startswith("nccausal."))
        ]
        for layer_name, module_name, path in LAYER_SITES:
            layer_id = LAYERS.index(layer_name)
            owner = sys.modules.get(f"nccausal.{module_name}")
            *outer_names, attr = path.split(".")
            for part in outer_names:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(layer_id, original)
            if outer_names:  # a method: callers look it up on the class
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Calls, busy, self time and raised calls per layer for spans
        ``first:last``.  Busy time counts only the outermost span of a layer;
        self time is a span's duration minus its direct children's."""
        layer = np.frombuffer(self.layer, dtype=np.int16)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last]
        raised = np.frombuffer(self.raised, dtype=np.int8)[first:last]
        outer = np.frombuffer(self.outer, dtype=np.int8)[first:last]
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[first:last]
            - np.frombuffer(self.start, dtype=np.float64)[first:last]
        )
        has_parent = parent >= first
        children = np.bincount(
            parent[has_parent] - first, weights=dur[has_parent], minlength=len(dur)
        )
        n = len(LAYERS)
        calls = np.bincount(layer, minlength=n)
        busy = np.bincount(layer, weights=dur * outer, minlength=n)
        self_time = np.bincount(layer, weights=dur - children, minlength=n)
        failed = np.bincount(layer, weights=raised, minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "busy_s": float(busy[i]),
                "self_s": float(self_time[i]),
                "failed": int(failed[i]),
            }
            for i, name in enumerate(LAYERS)
        }

    def save(self, path, env: dict) -> None:
        """Write every span (layer, start, end, parent, op, raised) to ``path``."""
        np.savez_compressed(
            path,
            layer_names=np.array(LAYERS),
            layer=np.frombuffer(self.layer, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            env=np.array(json.dumps(env, sort_keys=True)),
        )
