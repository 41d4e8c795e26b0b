"""Per-layer tracing of coherlab from outside its source.

``Tracer.installed()`` wraps every public entry point of the six layers
(``linalg``, ``states``, ``measures``, ``channels``, ``protocols``, ``cli``):
public functions are replaced wherever a ``coherlab`` module binds them,
including the names other modules imported, and the public methods listed
in ``METHODS`` are replaced on their class.  Leaving the context restores
every original, so untraced runs execute unmodified code.

Each wrapped call is a span.  Its self time is its duration minus the
time covered by the spans it caused; work counters are read from the
call's arguments and result.  ``measures.minimize`` is wrapped without a
span, only to count optimizer restarts and function evaluations, so the
search time stays in the measure that started it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("linalg", "states", "measures", "channels", "protocols", "cli")


def _dim(x) -> int:
    mat = getattr(x, "mat", x)
    return len(mat)


# (layer module, class, method) -> (span name, work counter or None).  A
# work counter maps (args, result) to {counter suffix: increment}.
METHODS = {
    ("linalg", "DensityMatrix", "__post_init__"):
        ("linalg.density_matrix", lambda a, r: {"eig_cubed": _dim(a[0]) ** 3}),
    ("linalg", "PureState", "__post_init__"): ("linalg.pure_state", None),
    ("states", "DominoFamily", "__post_init__"): ("states.domino_family", None),
    ("channels", "KrausChannel", "__post_init__"): ("channels.kraus_channel", None),
    ("channels", "KrausChannel", "apply"):
        ("channels.kraus_apply", lambda a, r: {"ops": len(a[0].ops)}),
    ("channels", "KrausChannel", "apply_instrument"):
        ("channels.apply_instrument", lambda a, r: {"outcomes": len(r)}),
    ("channels", "ProductKrausChannel", "__post_init__"): ("channels.product_kraus_channel", None),
    ("channels", "ProductKrausChannel", "to_kraus"): ("channels.product_to_kraus", None),
    ("channels", "ProductKrausChannel", "apply"): ("channels.product_apply", None),
    ("channels", "ProductKrausChannel", "apply_instrument"):
        ("channels.product_apply_instrument", None),
    ("channels", "LocalProtocol", "run"):
        ("channels.protocol_run", lambda a, r: {"leaves": len(r)}),
    ("channels", "LocalProtocol", "apply"): ("channels.protocol_apply", None),
    ("channels", "LocalProtocol", "to_product"): ("channels.to_product", None),
}

FUNCTION_WORK = {
    "linalg.von_neumann_entropy": lambda a, r: {"eig_cubed": _dim(a[0]) ** 3},
}

# Every work counter the wrappers above (and the minimize wrapper) can
# increment.  eig_cubed is a computed operation count: the sum of d^3 over
# the calls, d being the matrix order.
COUNTERS = frozenset({
    "linalg.density_matrix.eig_cubed",
    "linalg.von_neumann_entropy.eig_cubed",
    "channels.kraus_apply.ops",
    "channels.apply_instrument.outcomes",
    "channels.protocol_run.leaves",
    "measures.optimizer.restarts",
    "measures.optimizer.nfev",
})


class Tracer:
    """Span statistics for one traced block of operations.

    ``calls[name]`` and ``self_ns[name]`` are per span name, ``work`` holds
    named counters (``<span>.<counter>``), and ``spans`` (when recording)
    keeps every span as (id, parent id, name, start ns, end ns, operation).
    """

    def __init__(self, record_spans: bool = False):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.work: Counter = Counter()
        self.spans: list | None = [] if record_spans else None
        self.op: int | None = None
        self.span_names: set[str] = set()
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0

    def _wrap(self, name: str, fn, work=None):
        self.span_names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.calls[name] += 1
                self.self_ns[name] += end - start - frame[1]
                if self.spans is not None:
                    self.spans.append((frame[0], parent, name, start, end, self.op))
            if work is not None:
                for key, n in work(args, result).items():
                    self.work[f"{name}.{key}"] += n
            return result

        return traced

    def _counted_minimize(self, minimize):
        @functools.wraps(minimize)
        def counted(*args, **kwargs):
            result = minimize(*args, **kwargs)
            self.work["measures.optimizer.restarts"] += 1
            self.work["measures.optimizer.nfev"] += int(result.nfev)
            return result

        return counted

    @contextmanager
    def installed(self):
        """Wrap the entry points for the duration of the block."""
        modules = [m for n, m in sys.modules.items() if n == "coherlab" or n.startswith("coherlab.")]
        layer_mods = {layer: sys.modules[f"coherlab.{layer}"] for layer in LAYERS}
        replacements = {}  # id(original) -> wrapper, for module-level bindings
        for layer, mod in layer_mods.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and id(fn) not in replacements:
                    span = f"{layer}.{fn.__name__}"
                    replacements[id(fn)] = self._wrap(span, fn, FUNCTION_WORK.get(span))
        minimize = layer_mods["measures"].minimize
        replacements[id(minimize)] = self._counted_minimize(minimize)

        restore = []
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    wrapper = replacements.get(id(value))
                    if wrapper is not None:
                        restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            for (layer, cls_name, meth), (span, work) in METHODS.items():
                cls = getattr(layer_mods[layer], cls_name)
                original = cls.__dict__[meth]
                restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original, work))
            yield self
        finally:
            for obj, attr, value in reversed(restore):
                setattr(obj, attr, value)

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == layer)
