"""Spans around the calls between zetagenus modules, recorded from outside.

`install` replaces, in the name table of each zetagenus module, every
function that module imported from another zetagenus module by a wrapper
that records a span (name, start, end, parent) and a call count.  The
program's own files are not touched: a module calls whatever its name
table holds, so the wrapper sits exactly on the module boundary.  Spans
stay in memory; `summary` reduces them to self time per layer.

Kernel evaluations are counted as they run.  Calls from other modules
pass through the span wrappers; calls inside `zetagenus.series` (from
`symmetrize`, the peeling residuals and the tail family) look the kernel
up in that module's own name table, where `install` puts a counting
wrapper that opens no span.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "exact", "partitions", "genus", "series", "formal", "verify", "render")
KERNELS = ("alternating_chain_sum", "alternating_chain_tail", "alternating_chain_tail_family",
           "multiple_zeta", "multiple_zeta_star")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.kernel_calls = 0  # kernel evaluations, wherever they are called from
        self.sym_kernel_calls = 0  # those made while a symmetrize span is open
        self.sym_distinct = 0  # distinct orderings of the exponents passed to symmetrize

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def count(self, name: str, args: tuple) -> None:
        self.calls[name] += 1
        func = name.split(".", 1)[1]
        if func in KERNELS:
            self.count_kernel()
        elif func == "symmetrize":
            exps = list(args[1])
            distinct = math.factorial(len(exps))
            for mult in Counter(exps).values():
                distinct //= math.factorial(mult)
            self.sym_distinct += distinct

    def count_kernel(self) -> None:
        self.kernel_calls += 1
        if any(self.spans[i][0] == "series.symmetrize" for i in self.stack):
            self.sym_kernel_calls += 1

    def counted(self, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            self.count_kernel()
            return fn(*args, **kwargs)

        return call

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # one span per item, so the consumer's work between items is not counted
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                self.count(name, args)
                it = fn(*args, **kwargs)
                while True:
                    idx = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield item

            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            self.count(name, args)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return call

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        suite_s = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name.split(".", 1)[0]] += end - start - child[i]
            if name == "verify.run_suite":
                suite_s += end - start
        return {
            "self_s": self_s,
            "suite_s": suite_s,
            "spans": len(self.spans),
            "kernel_calls": self.kernel_calls,
            "sym_kernel_calls": self.sym_kernel_calls,
            "sym_distinct": self.sym_distinct,
        }


def install(tracer: Tracer) -> None:
    """Wrap every cross-module function binding inside the zetagenus package,
    and count the kernels `zetagenus.series` calls from its own name table."""
    import importlib

    for layer in LAYERS:
        module = importlib.import_module(f"zetagenus.{layer}")
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj):
                continue
            home = obj.__module__
            if home.startswith("zetagenus.") and home != module.__name__:
                setattr(module, attr, tracer.wrap(f"{home.rsplit('.', 1)[1]}.{obj.__name__}", obj))
    series = importlib.import_module("zetagenus.series")
    for attr in KERNELS:
        setattr(series, attr, tracer.counted(getattr(series, attr)))
