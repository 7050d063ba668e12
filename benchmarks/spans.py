"""Span tracing of the library's layers, installed from outside the library.

`Tracer.install` replaces each traced function or method with a wrapper
that records one span per call: layer, parent span, start and end.  A
function is replaced in every `bianchicert` module namespace that holds it,
because modules import each other's functions by name (`pipeline` and `cli`
bind their own `is_prime`, for example).  Spans live in flat arrays in
memory and are written out only after the measured work.

A layer's self time is its span's duration minus the durations of its
direct child spans; children nest inside their parent, so this is the part
of the span that no traced callee covers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    name: str  # <module>.<function>, or <module>.<Class>.<label> with `methods`
    moves: str  # the end-to-end metric, and workload, this layer should move
    methods: tuple[str, ...] = ()  # class attributes wrapped; aliases share one layer


# general-large-d is not in BENCHMARK.json, so the d axis these layers grow
# along is measured only when that workload is run by name.
_D_AXIS = "; construct_wps and verify_wps along d on general-large-d, run by name"
_OBJECTS = "construct_wps and verify_wps on fig8-series and general-wide-operands" + _D_AXIS
_TEXT = "verify_wps and construct_wps on fig8-series"
_WIDE = "p50/p90 latencies on general-wide-operands"
_CHECKS = "construct_wps on fig8-series and general-wide-operands, little as d < 100" + _D_AXIS
_GAMMA8 = "fig8-series and setup_s"
_ALL = "all workloads"

LAYERS: tuple[Layer, ...] = (
    Layer("quadint.QuadInt.mul", _OBJECTS, ("__mul__", "__rmul__")),
    Layer("quadint.QuadInt.new", _OBJECTS, ("__post_init__",)),
    Layer("quadint.is_squarefree", _OBJECTS),
    Layer("quadint.parse_quadint", _TEXT),
    Layer("psl2.parse_mat2", _TEXT),
    Layer("pipeline.parse_witnesses", _TEXT),
    Layer("pipeline.render_witnesses", _TEXT),
    Layer("psl2.Mat2.mul", _WIDE, ("__mul__",)),
    Layer("psl2.PslElement.new", _WIDE, ("__post_init__",)),
    Layer("psl2.PslElement.pow", _WIDE, ("__pow__",)),
    Layer("psl2.eval_word", _WIDE),
    Layer("pipeline.validate_general", _CHECKS),
    Layer("pipeline.bezout_rt", _CHECKS),
    Layer("circles.is_prime", _CHECKS),
    Layer("circles.smallest_nonresidue", _CHECKS),
    Layer("circles.cocompact_certificate", _CHECKS),
    Layer("circles.stab_form", _CHECKS),
    Layer("congruence.in_gamma8", _GAMMA8),
    Layer("congruence.gamma8_level4_image", _GAMMA8),
    Layer("pipeline.construct_witness", _ALL),
    Layer("pipeline.verify_witness", _ALL),
    Layer("pipeline.run_checks", _ALL),
)

# Layers that some workload never calls.  Their self time would read a
# constant zero there, so the traced run reports only their call counts.
NOT_ON_EVERY_WORKLOAD = frozenset({
    "pipeline.validate_general", "circles.smallest_nonresidue", "congruence.in_gamma8",
})

# Root spans that the benchmark opens itself, one per operation.  A root's id
# is the identifier that all spans of one operation share.
ROOTS = ("bench.construct", "bench.verify")


class Tracer:
    def __init__(self) -> None:
        self.names = [layer.name for layer in LAYERS] + list(ROOTS)
        self.calls = [0] * len(self.names)
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.layers = array("H")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop all spans and counts.  The arrays are cleared in place, since
        the wrappers hold references to them."""
        for buf in (self.starts, self.ends, self.parents, self.layers):
            del buf[:]
        self.calls[:] = [0] * len(self.names)

    def wrap(self, index: int, fn: Callable) -> Callable:
        starts, ends, parents, layers = self.starts, self.ends, self.parents, self.layers
        stack, calls, clock = self._stack, self.calls, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1])
            layers.append(index)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            calls[index] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def root(self, name: str, fn: Callable) -> Callable:
        return self.wrap(self.names.index(name), fn)

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "bianchicert" or name.startswith("bianchicert.")]
        for index, layer in enumerate(LAYERS):
            module_name, attr = layer.name.split(".")[:2]
            owner = importlib.import_module(f"bianchicert.{module_name}")
            if layer.methods:
                cls = getattr(owner, attr)
                wrapper = self.wrap(index, cls.__dict__[layer.methods[0]])
                for method in layer.methods:
                    self._undo.append((cls, method, cls.__dict__[method]))
                    setattr(cls, method, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(index, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, value))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def self_and_total_s(self) -> tuple[list[float], list[float]]:
        """Per layer: summed self time, and summed span time not nested in a
        span of the same layer, so that recursion is not counted twice."""
        n = len(self.starts)
        child = array("d", bytes(8 * n))
        own = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        starts, ends, parents, layers = self.starts, self.ends, self.parents, self.layers
        for i in range(n - 1, -1, -1):  # a child's id is larger than its parent's
            dur = ends[i] - starts[i]
            layer = layers[i]
            own[layer] += dur - child[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += dur
            if parent < 0 or layers[parent] != layer:
                total[layer] += dur
        return own, total

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent id (-1 for a root), layer, and start
        and duration in microseconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tlayer\tstart_us\tdur_us\n")
            for i, (start, end) in enumerate(zip(self.starts, self.ends)):
                fh.write(f"{i}\t{self.parents[i]}\t{self.names[self.layers[i]]}\t"
                         f"{(start - origin) * 1e6:.3f}\t{(end - start) * 1e6:.3f}\n")
