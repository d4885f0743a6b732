"""Span recorder that wraps nmdesc's public functions from outside.

`Tracer.install()` replaces every public function of the traced modules with
a recording wrapper, at every place an nmdesc module looks it up: the
defining module, and any module that imported it by name (``pg`` does
``from .nls import accept``, so ``nmdesc.pg.accept`` is wrapped as well as
``nmdesc.nls.accept``). Lookups through a module attribute (``problems``
calls ``kernels.masked_grads``) see the wrapper on the defining module.
Parents come from a per-thread stack, so trials running on the
``bench --jobs`` pool nest under their own thread's spans.
"""

import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass, field

TRACED_MODULES = ("cli", "pg", "palm", "nls", "prox", "problems", "kernels",
                  "linalg", "trace", "diagnostics", "svgplot")

# private functions that bound a unit of work worth a span of their own
EXTRA_FUNCTIONS = {"cli": ("_bench_trial",)}
METHODS = {"prox": (("ProxSpec", "value"),)}


@dataclass
class Totals:
    """What the spans of one name add up to within one phase of a run."""

    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0   # busy minus the time child spans cover
    notes: dict = field(default_factory=dict)


def _note_accept(args, kwargs, result):
    return {"accepted": bool(result)}


def _note_masked_grads(args, kwargs, result):
    # arrays read (U, V, rows, cols, resid) and written (gU, gV)
    read = sum(getattr(a, "nbytes", 0) for a in args[:5])
    return {"bytes": read + result[0].nbytes + result[1].nbytes}


def _note_write_trace(args, kwargs, result):
    target = args[0] if args else kwargs.get("path_or_file")
    if isinstance(target, (str, bytes, os.PathLike)):
        return {"bytes": os.path.getsize(target)}
    return {}


NOTES = {
    "nls.accept": _note_accept,
    "kernels.masked_grads": _note_masked_grads,
    "trace.write_trace_csv": _note_write_trace,
}


class Tracer:
    """Times wrapped calls; `uninstall()` restores the original functions.

    Each call is a span: name, start, end, the enclosing span on the same
    thread as its parent. A closing span is folded into the totals of its
    name in the current phase, and its duration into its parent's child
    time, so memory stays flat however many calls a run makes. `mark()`
    starts a new phase (the traced run marks the end of set-up).
    """

    def __init__(self):
        self.phases = [{}]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def mark(self):
        with self._lock:
            self.phases.append({})

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        note = NOTES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            child = [0.0]  # time covered by this span's children
            stack.append(child)
            result = None
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                extra = note(args, kwargs, result) if note is not None and returned else {}
                with tracer._lock:
                    totals = tracer.phases[-1].setdefault(name, Totals())
                    totals.calls += 1
                    totals.busy += duration
                    totals.self_time += duration - child[0]
                    for key, value in extra.items():
                        totals.notes[key] = totals.notes.get(key, 0) + value

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function at every nmdesc lookup site."""
        loaded = {n: m for n, m in sys.modules.items()
                  if (n == "nmdesc" or n.startswith("nmdesc.")) and m is not None}
        targets = {}  # id(original function) -> (function, span name)
        for short in TRACED_MODULES:
            mod = loaded["nmdesc." + short]
            names = [a for a in vars(mod) if not a.startswith("_")]
            names += list(EXTRA_FUNCTIONS.get(short, ()))
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets.setdefault(id(fn), (fn, f"{short}.{attr}"))
        for mod in loaded.values():
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, self.wrap(hit[1], value))
        for short, methods in METHODS.items():
            mod = loaded["nmdesc." + short]
            for cls_name, meth in methods:
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                self._patch(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
