"""Outside-in layer spans: wrap public ``repro`` functions from the benchmark.

The benchmark never edits ``src/``.  It times a layer by replacing the
layer's public function or method, after import, with a wrapper that
records a span around the original call.  A seam is named by
``"module:qualname"``; a seam that a later refactor deletes or renames
resolves to *absent* and reports zero calls instead of raising, so the
benchmark survives the refactors it exists to measure.

Spans live in memory only (one :class:`Tracer` per process) and are
summarised when the repetition ends.  Spans recorded inside forked exec
workers stay in the child, so sharded workloads read exec numbers from
the run manifest instead (see ``rep.py``).
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Seam:
    """One wrapped public function: which span it records, for which layer."""

    span: str
    layer: str
    target: str
    #: ``after(args, result, counters)`` adds workload counts once the
    #: call returns (ticks, segments, flows).
    after: Callable[[tuple, Any, dict], None] | None = None
    #: ``on_call(start, end)`` makes this a unit seam: the wrapper only
    #: hands each call's perf_counter interval to it and records no span.
    on_call: Callable[[float, float], None] | None = None


def _count_ticks(args: tuple, report: Any, counters: dict) -> None:
    counters["control.ticks"] += len(getattr(report, "samples", ()))


def _count_segments(args: tuple, stats: Any, counters: dict) -> None:
    tcp = args[0]
    delivered = getattr(tcp, "delivered_segments", 0)
    retransmitted = getattr(tcp, "retransmissions", 0)
    counters["transport.packet.segments"] += delivered + retransmitted
    counters["transport.packet.retransmissions"] += retransmitted


def _count_flows(args: tuple, metrics: Any, counters: dict) -> None:
    if isinstance(metrics, dict):
        counters["demand.flows"] += metrics.get("flows", 0)


#: Every layer seam, in the ``repro`` module names the layers use.
SEAMS: tuple[Seam, ...] = (
    Seam("net.world.build", "net.world", "repro.experiments.scenario:build_world"),
    Seam("net.world.topology", "net.world", "repro.net.topology:generate_topology"),
    Seam("net.world.internet", "net.world", "repro.net.world:Internet.__init__"),
    Seam("net.path", "net.path", "repro.net.world:Internet.resolve_path"),
    Seam("net.path", "net.path", "repro.net.world:Internet.resolve_live_path"),
    Seam("net.fastpath.fill", "net.fastpath", "repro.net.fastpath:FastPath.metric_lists"),
    Seam("net.fastpath.lookup", "net.fastpath", "repro.net.fastpath:FastPath.path_metrics"),
    Seam("faults", "faults", "repro.faults.injector:FaultInjector.apply"),
    Seam("faults", "faults", "repro.faults.injector:FaultInjector.effects_at"),
    Seam(
        "control", "control", "repro.control.controller:OverlayController.run",
        after=_count_ticks,
    ),
    Seam("control.probe", "control", "repro.control.probes:ProbeScheduler.probe"),
    Seam("control.policy", "control", "repro.control.policy:Policy.decide"),
    Seam(
        "transport.model", "transport.model",
        "repro.transport.throughput:steady_state_throughput_mbps",
    ),
    Seam(
        "transport.packet", "transport.packet",
        "repro.transport.packetsim:PacketLevelTcp.run", after=_count_segments,
    ),
    Seam(
        "transport.packet.links", "transport.packet",
        "repro.transport.packetsim:sim_links_at",
    ),
    Seam(
        "demand", "demand", "repro.demand.engine:DemandEngine.epoch_metrics",
        after=_count_flows,
    ),
    Seam("demand.solve", "demand", "repro.demand.aggregate:solve_epoch"),
    Seam("io.dump", "io", "repro.io:dump_json"),
)


class Tracer:
    """In-memory span recorder with per-span and per-layer aggregates.

    A span's busy time counts only its outermost activation, so a
    recursive or re-entrant seam is not double counted.  Self time is
    exclusive time: a span's duration minus its direct children's,
    credited to the span's layer, so the layers' self times partition
    the traced time.
    """

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._span_depth: dict[str, int] = {}
        self._layer_depth: dict[str, int] = {}
        #: span -> [calls, busy_s]
        self.spans: dict[str, list] = {}
        #: layer -> [busy_s, self_s]
        self.layers: dict[str, list] = {}
        self.counters: dict[str, float] = {
            "control.ticks": 0,
            "transport.packet.segments": 0,
            "transport.packet.retransmissions": 0,
            "demand.flows": 0,
        }

    def enter(self, span: str, layer: str) -> None:
        """Open a span; pair every call with :meth:`leave`."""
        self._span_depth[span] = self._span_depth.get(span, 0) + 1
        self._layer_depth[layer] = self._layer_depth.get(layer, 0) + 1
        self._stack.append([span, layer, perf_counter(), 0.0])

    def leave(self) -> None:
        """Close the innermost open span."""
        end = perf_counter()
        span, layer, start, children = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        self._span_depth[span] -= 1
        self._layer_depth[layer] -= 1
        span_stats = self.spans.setdefault(span, [0, 0.0])
        span_stats[0] += 1
        if self._span_depth[span] == 0:
            span_stats[1] += duration
        layer_stats = self.layers.setdefault(layer, [0.0, 0.0])
        layer_stats[1] += duration - children
        if self._layer_depth[layer] == 0:
            layer_stats[0] += duration


def _resolve(target: str) -> tuple[Any, str, Any] | None:
    """``"module:Owner.attr"`` -> (owner, attr, original), or None if absent."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        # Deleted, or now a plain value (a config field) with nothing to time.
        return None
    return owner, attr, original


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _make_wrapper(
    original: Callable, tracer: Tracer | None, seam: Seam
) -> Callable:
    if seam.on_call is not None:
        on_call = seam.on_call

        @functools.wraps(original)
        def unit_wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                on_call(start, perf_counter())

        return unit_wrapper

    enter, leave = tracer.enter, tracer.leave
    span, layer, after, counters = seam.span, seam.layer, seam.after, tracer.counters

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        enter(span, layer)
        try:
            result = original(*args, **kwargs)
        finally:
            leave()
        if after is not None:
            after(args, result, counters)
        return result

    return wrapper


def install(
    tracer: Tracer | None, seams: tuple[Seam, ...] = SEAMS
) -> list[str]:
    """Wrap every present seam; returns the targets found absent.

    A method is wrapped on the named class and on every loaded subclass
    that overrides it (``Policy.decide`` is abstract; the work is in
    the subclasses).  A module-level function is replaced in every
    loaded ``repro`` module that imported it by name, so callers that
    did ``from x import f`` see the wrapper too.  Call this after the
    workload's modules are imported and before any campaign work.
    ``tracer`` may be None when every seam is a unit seam.
    """
    absent: list[str] = []
    for seam in seams:
        resolved = _resolve(seam.target)
        if resolved is None:
            absent.append(seam.target)
            continue
        owner, attr, original = resolved
        if isinstance(owner, type):
            # An inherited method is wrapped on the named class itself.
            defining = [cls for cls in _subclasses(owner) if attr in vars(cls)]
            defining = defining or [owner]
            for cls in defining:
                wrapped = vars(cls).get(attr, original)
                setattr(cls, attr, _make_wrapper(wrapped, tracer, seam))
            continue
        wrapper = _make_wrapper(original, tracer, seam)
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
    return absent

