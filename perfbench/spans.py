"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces each layer's public functions and methods with
wrappers wherever callers look them up: in the defining module, in every
cfkzero module that imported the name, on the class for methods, and in the
``cli.PAPER_CHECKS`` table for the seven verification checks.  A wrapper
records a span (name, start, end, parent) and the sizes involved;
``uninstall`` puts the originals back, so timed runs see an untouched
program.  Spans stay in memory until the run writes them out.

The arithmetic leaves (RingElem, LaurentPoly, _MonoMatrix) and a few
per-entry accessors are not wrapped: they run millions of times per sum,
and their time shows as the self time of the span that called them.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time
import tracemalloc
from typing import Any, Callable, Optional

LAYERS = ("algebra", "complexes", "standard", "knots", "involutive", "cli")
UNWRAPPED_CLASSES = {"RingElem", "LaurentPoly", "Generator"}
UNWRAPPED_METHODS = {
    "ChainComplex.generator",
    "ChainComplex.ids",
    "ChainComplex.entry",
    "Endomorphism.twist",
    "Endomorphism.entry",
}

Sizer = Callable[[tuple, Any], dict]


def _tensor_sizes(args: tuple, result: Any) -> dict:
    return {"gens": len(result), "full": int(result.mode.name == "FULL")}


def _simplify_sizes(args: tuple, result: Any) -> dict:
    return {"gens": len(args[0]), "arrows_in": len(args[0].diff), "arrows_out": len(result.diff)}


SIZERS: dict[str, Sizer] = {
    "complexes.ChainComplex.tensor": _tensor_sizes,
    "complexes.ChainComplex.reduce": lambda a, r: {"removed": len(a[0]) - len(r)},
    "standard.simplify_basis": _simplify_sizes,
    "standard.extract_gamma0_with_loops": lambda a, r: {"loops": r[1]},
}

# a span: (name, start_ns, end_ns, parent index or -1, sizes or None)
Span = tuple[str, int, int, int, Optional[dict]]


class Tracer:
    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.stack: list[int] = []
        self.probe_memory = False  # tracemalloc inside simplify spans
        self.peak_bytes = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._checks_backup: Optional[list] = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        sizer = SIZERS.get(name)
        memory = name == "standard.simplify_basis"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            probing = memory and tracer.probe_memory
            if probing:
                tracemalloc.start()
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                if probing:
                    tracer.peak_bytes = max(tracer.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                sizes = sizer(args, result) if sizer is not None and result is not None else None
                spans[idx] = (name, start, end, parent, sizes)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _modules(self) -> list:
        return [sys.modules[f"cfkzero.{layer}"] for layer in LAYERS]

    def install(self) -> None:
        modules = self._modules()
        wrappers: dict[int, Callable] = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and name not in UNWRAPPED_CLASSES
                      and not issubclass(obj, (BaseException, enum.Enum))):
                    for meth, fn in list(vars(obj).items()):
                        if (meth.startswith("_") or not inspect.isfunction(fn)
                                or f"{name}.{meth}" in UNWRAPPED_METHODS):
                            continue
                        self._patch(obj, meth, self._wrap(f"{layer}.{name}.{meth}", fn))
        package = sys.modules["cfkzero"]
        for mod in modules + [package]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        cli = modules[-1]
        self._checks_backup = list(cli.PAPER_CHECKS)
        cli.PAPER_CHECKS[:] = [
            (name, self._wrap(f"cli.verify.{name}", fn)) for name, fn in self._checks_backup
        ]

    def _patch(self, target: Any, name: str, value: Any) -> None:
        self._patches.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()
        if self._checks_backup is not None:
            self._modules()[-1].PAPER_CHECKS[:] = self._checks_backup
            self._checks_backup = None

    def take(self) -> list[Span]:
        """The spans recorded since the last call, in start order; call it
        between operations, when every span has ended."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover, in ns."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]
