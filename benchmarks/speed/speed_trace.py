"""Outside-in layer tracing for the speed benchmark.

The traced pass wraps public simulator methods, looked up by name, with
timing spans before any ``System`` is built. A span stack turns those
wraps into per-layer *self* time: a span's duration minus the part of it
its hooked children cover. Spans are aggregated per hook in memory
(``HookStat``), never stored one by one, because a heavy cell crosses
millions of layer boundaries.

Engine dispatch is traced through ``Simulator.schedule_at``: every
scheduled callback is wrapped in a span charged to the layer whose module
defines the callback, so controller completion lambdas count as memctrl
and the engine keeps only its run loop and heap pushes.

Tracing costs host time, and that time lands in the layer that opened
the span. :func:`calibrate` measures the cost of one span and of one
callback wrap, and :meth:`HookStat.corrected_self_ns` takes both back out.

This module imports nothing from ``repro`` at import time; hook targets
resolve when :func:`install_hooks` runs.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

#: Layers in report order; the names prefix every per-layer metric.
LAYERS = (
    "engine",
    "memctrl",
    "pcm",
    "core",
    "cpu",
    "workloads",
    "sim.system",
    "sim.runner",
)

#: Package of a callback's defining module -> the layer its dispatch is
#: charged to. Only these packages schedule engine events.
DISPATCH_LAYERS = {
    "repro.engine": "engine",
    "repro.memctrl": "memctrl",
    "repro.cpu": "cpu",
}

#: (layer, hook, target). ``engine.schedule_at`` also wraps the callback
#: it schedules, and ``workloads.next`` times ``__next__`` of the
#: iterator ``__iter__`` returns; every other hook is a plain span.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("engine", "run", "repro.engine.simulator:Simulator.run"),
    ("engine", "schedule_at", "repro.engine.simulator:Simulator.schedule_at"),
    ("memctrl", "enqueue", "repro.memctrl.controller:MemoryController.enqueue"),
    ("memctrl", "can_accept", "repro.memctrl.controller:MemoryController.can_accept"),
    ("memctrl", "notify_space", "repro.memctrl.controller:MemoryController.notify_space"),
    ("memctrl", "decode_block", "repro.memctrl.address_map:AddressMap.decode_block"),
    ("pcm", "schedule_read", "repro.pcm.bank:Bank.schedule_read"),
    ("pcm", "schedule_write", "repro.pcm.bank:Bank.schedule_write"),
    ("pcm", "read_start_time", "repro.pcm.bank:Bank.read_start_time"),
    ("core", "register_llc_write",
     "repro.core.monitor:RegionRetentionMonitor.register_llc_write"),
    ("core", "decide_write_mode",
     "repro.core.monitor:RegionRetentionMonitor.decide_write_mode"),
    ("core", "on_refresh_interrupt",
     "repro.core.monitor:RegionRetentionMonitor.on_refresh_interrupt"),
    ("core", "on_decay_tick", "repro.core.monitor:RegionRetentionMonitor.on_decay_tick"),
    ("cpu", "run", "repro.cpu.core_model:CoreModel._run"),
    ("workloads", "next", "repro.workloads.synthetic:RegionTrafficGenerator.__iter__"),
    ("sim.system", "init", "repro.sim.system:System.__init__"),
    ("sim.system", "run", "repro.sim.system:System.run"),
    ("sim.runner", "run_all", "repro.sim.runner:ExperimentRunner.run_all"),
)

#: Every hook name the traced pass reports, dispatch spans included.
HOOK_NAMES = tuple(f"{layer}.{hook}" for layer, hook, _ in HOOKS) + tuple(
    f"{layer}.dispatch" for layer in DISPATCH_LAYERS.values()
)

#: Hooks whose spans enclose host time spent outside ``System.run``.
OUTSIDE_RUN = ("sim.system.init", "sim.runner.run_all")


class HookError(RuntimeError):
    """A hook target is missing, or a callback's layer is unknown."""


@dataclass
class HookStat:
    """Aggregated spans of one hook."""

    layer: str
    calls: int = 0
    self_ns: int = 0
    #: Direct child spans; each one's overhead lands in this hook's self
    #: time and is subtracted with the calibrated span cost.
    child_spans: int = 0
    #: Whether every call also wraps a callback (``schedule_at``), whose
    #: calibrated cost is subtracted per call.
    wraps_callbacks: bool = False

    def corrected_self_ns(self, span_cost_ns: float, wrap_cost_ns: float) -> float:
        overhead = self.child_spans * span_cost_ns
        if self.wraps_callbacks:
            overhead += self.calls * wrap_cost_ns
        return self.self_ns - overhead


class SpanTracer:
    """Span stack plus per-hook aggregates."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.stats: Dict[str, HookStat] = {}
        # Per open span: ns covered by its child spans, and their number.
        self._covered: List[int] = []
        self._children: List[int] = []

    def stat(self, name: str, layer: str) -> HookStat:
        if name not in self.stats:
            self.stats[name] = HookStat(layer)
        return self.stats[name]

    def closure(self, stat: HookStat, fn: Callable) -> Callable:
        """*fn* wrapped in a span charged to *stat* (no metadata copied)."""
        covered = self._covered
        children = self._children
        clock = self.clock

        def traced(*args, **kwargs):
            covered.append(0)
            children.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_ns += elapsed - covered.pop()
                stat.child_spans += children.pop()
                if covered:
                    covered[-1] += elapsed
                    children[-1] += 1

        return traced

    def span(self, name: str, layer: str, fn: Callable) -> Callable:
        """*fn* wrapped in a span charged to hook *name* of *layer*."""
        return functools.wraps(fn)(self.closure(self.stat(name, layer), fn))

    def callback_wrapper(self) -> Callable[[Callable], Callable]:
        """Function wrapping an engine callback in a dispatch span."""
        by_module: Dict[str, HookStat] = {}
        for layer in DISPATCH_LAYERS.values():
            self.stat(f"{layer}.dispatch", layer)

        def wrap(callback: Callable) -> Callable:
            func = getattr(callback, "__func__", callback)
            module = getattr(func, "__module__", None) or "?"
            stat = by_module.get(module)
            if stat is None:
                layer = _dispatch_layer(module, func)
                stat = by_module[module] = self.stats[f"{layer}.dispatch"]
            return self.closure(stat, callback)

        return wrap


def _dispatch_layer(module: str, func: Callable) -> str:
    for package, layer in DISPATCH_LAYERS.items():
        if module == package or module.startswith(package + "."):
            return layer
    raise HookError(
        f"engine callback {module}:{getattr(func, '__qualname__', '?')} "
        "belongs to no traced layer; extend DISPATCH_LAYERS"
    )


def _resolve(target: str) -> Tuple[type, str, Callable]:
    module_name, _, path = target.partition(":")
    class_name, _, attr = path.partition(".")
    try:
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[attr]
    except (ImportError, AttributeError, KeyError):
        raise HookError(f"hook target {target} not found") from None
    return cls, attr, original


class _TimedIterator:
    """Iterator whose ``__next__`` is the workloads span."""

    __slots__ = ("_next",)

    def __init__(self, timed_next: Callable) -> None:
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def _hooked(tracer: SpanTracer, layer: str, hook: str, original: Callable) -> Callable:
    name = f"{layer}.{hook}"
    if hook == "schedule_at":
        wrap = tracer.callback_wrapper()

        @functools.wraps(original)
        def schedule_at(self, time, callback, *args, **kwargs):
            return original(self, time, wrap(callback), *args, **kwargs)

        tracer.stat(name, layer).wraps_callbacks = True
        return tracer.span(name, layer, schedule_at)
    if hook == "next":
        stat = tracer.stat(name, layer)

        @functools.wraps(original)
        def timed_iter(self):
            return _TimedIterator(tracer.closure(stat, original(self).__next__))

        return timed_iter
    return tracer.span(name, layer, original)


def install_hooks(
    tracer: SpanTracer, hooks: Iterable[Tuple[str, str, str]] = HOOKS
) -> None:
    """Wrap every hook target in the running interpreter.

    Every target is resolved before any is wrapped, so a missing one
    raises :class:`HookError` naming it and leaves the classes untouched.
    """
    resolved = [(layer, hook, *_resolve(target)) for layer, hook, target in hooks]
    for layer, hook, cls, attr, original in resolved:
        setattr(cls, attr, _hooked(tracer, layer, hook, original))


def calibrate(trials: int = 9, n: int = 20_000) -> Tuple[float, float]:
    """Median host ns added by one span and by one callback wrap.

    Times a hooked no-op method against an unhooked one, called the way
    the simulator calls its hooked methods, and wrapping a bound-method
    callback against not wrapping it, inside an open parent span as in a
    real run; each figure is the median over *trials*.
    """
    tracer = SpanTracer()
    clock = tracer.clock

    class Plain:
        def noop(self, a, b) -> None:
            return None

    class Hooked(Plain):
        pass

    # The wrap resolves a callback's layer from its module, so the no-op
    # stands in for an engine callback.
    Plain.noop.__module__ = "repro.engine"
    Hooked.noop = tracer.span("calibration", "engine", Plain.noop)
    plain, hooked = Plain(), Hooked()
    wrap = tracer.callback_wrapper()

    def calls(obj) -> int:
        start = clock()
        for _ in range(n):
            obj.noop(1, 2)
        return clock() - start

    def wraps(obj) -> int:
        start = clock()
        for _ in range(n):
            wrap(obj.noop)
        return clock() - start

    def bound(obj) -> int:
        start = clock()
        for _ in range(n):
            obj.noop  # noqa: B018 - the attribute lookup wraps() also pays
        return clock() - start

    parent = tracer.span("calibration.parent", "engine", lambda fn, obj: fn(obj))
    span_ns, wrap_ns = [], []
    for _ in range(trials):
        span_ns.append((parent(calls, hooked) - parent(calls, plain)) / n)
        # A wrap is charged without the dispatch span it creates.
        wrap_ns.append((parent(wraps, plain) - parent(bound, plain)) / n)
    return (
        max(0.0, statistics.median(span_ns)),
        max(0.0, statistics.median(wrap_ns)),
    )


def layer_metrics(
    stats: Dict[str, HookStat], span_cost_ns: float, wrap_cost_ns: float
) -> Dict[str, Tuple[float, str]]:
    """Per-hook and per-layer metrics, as ``name -> (value, unit)``.

    Hook names are taken from :data:`HOOK_NAMES`, so a hook that never
    fired still reports zero calls. ``ns_per_call`` and ``self_s`` are
    corrected self times.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    layer_calls = dict.fromkeys(LAYERS, 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in HOOK_NAMES:
        stat = stats.get(name) or HookStat(name.rsplit(".", 1)[0])
        self_ns = stat.corrected_self_ns(span_cost_ns, wrap_cost_ns)
        layer_calls[stat.layer] += stat.calls
        layer_self[stat.layer] += self_ns
        metrics[f"{name}.calls"] = (stat.calls, "count")
        metrics[f"{name}.ns_per_call"] = (
            self_ns / stat.calls if stat.calls else 0.0,
            "ns",
        )
    total = sum(layer_self.values())
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (layer_calls[layer], "count")
        metrics[f"{layer}.self_s"] = (layer_self[layer] / 1e9, "s")
        metrics[f"{layer}.share"] = (
            layer_self[layer] / total if total else 0.0,
            "ratio",
        )
    return metrics


def in_run_self_s(
    stats: Dict[str, HookStat], span_cost_ns: float, wrap_cost_ns: float
) -> float:
    """Corrected self time of every span inside ``System.run``: the
    traced estimate of the untraced ``run_s``."""
    return sum(
        stat.corrected_self_ns(span_cost_ns, wrap_cost_ns)
        for name, stat in stats.items()
        if name not in OUTSIDE_RUN
    ) / 1e9
