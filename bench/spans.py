"""Per-module spans for the traced benchmark run.

`Tracer.install` rebinds every public function of each motzkin module, in
the namespace of every module that imported it, to a wrapper that pushes a
span on an in-memory stack.  `matched_pairs`, for example, is rebound in
`word_model`, `weights` and `pair_arith`, and the recursive calls of
`pair_nest_weight` go through its rebound global name.  `Word.__post_init__`
is wrapped as well, so every Word validation counts for `word_model`.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.  Only aggregates are kept:
call counts per function, self time per layer, and the total duration of
root spans, which the self times must add up to.  Live memory per layer
comes from tracemalloc, grouped by the source file that allocated it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from pathlib import Path

LAYERS = ("cli", "word_model", "sequences", "oracle", "weights", "pair_arith", "checks")


class Tracer:
    def __init__(self):
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.root_ns = [0]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, key: str):
        stack, calls, self_ns, root_ns = self.stack, self.calls, self.self_ns, self.root_ns
        clock = time.perf_counter_ns
        calls[key] = 0

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    root_ns[0] += elapsed

        return span

    def install(self):
        """Wrap the public functions of every layer module and rebind them."""
        package = importlib.import_module("motzkin")
        modules = {layer: importlib.import_module(f"motzkin.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(obj, layer, f"{layer}.{name}")
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
        word = modules["word_model"].Word
        post_init = word.__dict__.get("__post_init__")
        if post_init is not None:
            self._undo.append((word, "__post_init__", post_init))
            setattr(word, "__post_init__",
                    self._wrap(post_init, "word_model", "word_model.Word.__post_init__"))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def summary(self) -> dict:
        """Call counts and self seconds per layer, plus per-function counts."""
        layer_calls = dict.fromkeys(LAYERS, 0)
        for key, count in self.calls.items():
            layer_calls[key.split(".", 1)[0]] += count
        return {
            "calls": layer_calls,
            "function_calls": dict(self.calls),
            "self_s": {layer: ns / 1e9 for layer, ns in self.self_ns.items()},
            "root_s": self.root_ns[0] / 1e9,
        }


def live_kib(package_dir: Path) -> dict[str, float]:
    """KiB still allocated per layer module, from a tracemalloc snapshot."""
    live = dict.fromkeys(LAYERS, 0.0)
    if not tracemalloc.is_tracing():
        return live
    for stat in tracemalloc.take_snapshot().statistics("filename"):
        path = Path(stat.traceback[0].filename)
        if path.parent == package_dir and path.stem in live:
            live[path.stem] += stat.size / 1024
    return live
