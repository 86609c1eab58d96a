"""Per-layer spans recorded by wrapping the program's public functions.

The wrappers live here, not in the program: ``Tracer.install`` replaces
every public module-level function (and every public plain method of a
class) defined in the listed ``cyclerec`` modules with a timing wrapper,
in each module that holds a reference to it, and ``uninstall`` puts the
originals back. A layer is named ``<module>.<function>`` or
``<module>.<Class>.<method>``.

A layer's self time is its span minus the spans of wrapped calls made
inside it. Hooks run after a call to count the work it was given (rows,
tokens, epochs) or to keep a sample for an oracle check; their time is
charged to no layer, so it falls in the untraced remainder.

A function the program no longer defines is simply not wrapped; the
report lists it as absent instead of failing.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

LAYER_MODULES = ("data", "model", "losses", "exemplars", "metrics", "harness", "reporting", "cli")
PACKAGE = "cyclerec"

RANK_SAMPLE_ROWS = 4  # logit rows kept per target_ranks call for the oracle


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _hook_loss_and_gradients(stats: LayerStats, samples, args, kwargs, result) -> None:
    state, spec = args[0], args[1] if len(args) > 1 else kwargs["spec"]
    rows = list(spec.ce_examples)
    if spec.kd_weight != 0.0:
        rows += list(spec.kd_examples)
    max_len = state.config.max_seq_len
    stats.add("rows", len(rows))
    stats.add("tokens", sum(min(len(ex.prefix), max_len) for ex in rows))


def _hook_extract_features_batch(stats: LayerStats, samples, args, kwargs, result) -> None:
    stats.add("rows", len(result))


def _hook_target_ranks(stats: LayerStats, samples, args, kwargs, result) -> None:
    logits = np.asarray(args[0] if args else kwargs["logits"])
    targets = np.asarray(args[1] if len(args) > 1 else kwargs["targets"])
    stats.add("rows", len(targets))
    if len(targets):
        pick = np.unique(np.linspace(0, len(targets) - 1, RANK_SAMPLE_ROWS).astype(int))
        samples.append((logits[pick].copy(), targets[pick].copy(), np.asarray(result)[pick].copy()))


def _hook_update_model(stats: LayerStats, samples, args, kwargs, result) -> None:
    stats.add("epochs", len(result))


def _hook_allocate_quota(stats: LayerStats, samples, args, kwargs, result) -> None:
    counts = args[0] if args else kwargs["pool_counts"]
    capacity = args[1] if len(args) > 1 else kwargs["capacity"]
    samples.append((np.asarray(counts).copy(), int(capacity), np.asarray(result).copy()))


HOOKS: dict[str, Callable] = {
    "model.loss_and_gradients": _hook_loss_and_gradients,
    "model.extract_features_batch": _hook_extract_features_batch,
    "metrics.target_ranks": _hook_target_ranks,
    "harness.update_model": _hook_update_model,
    "exemplars.allocate_quota": _hook_allocate_quota,
}


class Tracer:
    """Installs timing wrappers around the program's public functions."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.samples: dict[str, list] = {}
        self.hook_errors: dict[str, str] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _modules(self) -> dict[str, object]:
        found = {}
        for short in LAYER_MODULES:
            try:
                found[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue  # a deleted module: all of its layers are absent
        return found

    def install(self) -> "Tracer":
        modules = self._modules()
        originals: dict[int, object] = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, attr, self._wrap(f"{short}.{name}.{attr}", member))
        holders = [m for m in sys.modules.values() if getattr(m, "__name__", "").startswith(PACKAGE)]
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patch(mod, name, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        hook = HOOKS.get(layer)
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stats = self.stats.get(layer)
                if stats is None:
                    stats = self.stats[layer] = LayerStats()
                stats.calls += 1
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook_start = perf_counter()
                try:
                    hook(stats, self.samples.setdefault(layer, []), args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
                    self.hook_errors.setdefault(layer, repr(err))
                if stack:  # keep the hook's time out of the caller's self time
                    stack[-1] += perf_counter() - hook_start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    # -- results ------------------------------------------------------------

    def take(self) -> tuple[dict[str, LayerStats], dict[str, list]]:
        """Return the stats and samples gathered since the last call, and reset them."""
        stats, samples = self.stats, self.samples
        self.stats, self.samples = {}, {}
        return stats, samples
