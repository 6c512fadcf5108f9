"""Per-layer tracing from outside the program.

The benchmark never edits ``repro``; it replaces public functions and
methods with timing wrappers for the length of a traced run, and puts
the originals back afterwards.  Each wrapper is installed where its
*caller* looks the name up: ``allocation.py`` does
``from ._highs import solve_canonical_milp``, so the HiGHS layer is
patched as ``repro.core.allocation.solve_canonical_milp``; patching
``repro.core._highs`` would record nothing.  Methods are patched on
their class, which is where an instance looks them up.

Spans nest per thread.  A span's *self* time is its duration minus the
durations of its direct children on the same thread, so the DP's own
time is the segment pass minus the allocation and cache calls inside
it, while a solve running on a solver-pool worker thread is charged to
that worker's spans and not to the pass waiting for it.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Layer:
    """Aggregates of one traced layer."""

    calls: int = 0
    hits: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0

    def copy(self) -> "Layer":
        return Layer(self.calls, self.hits, self.busy_s, self.self_s, self.max_s)

    def minus(self, earlier: "Layer") -> "Layer":
        """Counts and times accrued since ``earlier`` (max is not a sum)."""
        return Layer(
            self.calls - earlier.calls,
            self.hits - earlier.hits,
            self.busy_s - earlier.busy_s,
            self.self_s - earlier.self_s,
            self.max_s,
        )


class _Frame:
    __slots__ = ("name", "start", "children_s")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.children_s = 0.0


class Recorder:
    """Thread-safe span and counter sink with per-thread span stacks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._layers: Dict[str, Layer] = {}

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self._stack().append(_Frame(name, self._clock()))

    def exit(self, hit: bool = False) -> None:
        end = self._clock()
        stack = self._stack()
        frame = stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].children_s += duration
        with self._lock:
            layer = self._layers.setdefault(frame.name, Layer())
            layer.calls += 1
            layer.hits += int(hit)
            layer.busy_s += duration
            layer.self_s += duration - frame.children_s
            layer.max_s = max(layer.max_s, duration)

    def count(self, name: str) -> None:
        with self._lock:
            self._layers.setdefault(name, Layer()).calls += 1

    def snapshot(self) -> Dict[str, Layer]:
        with self._lock:
            return {name: layer.copy() for name, layer in self._layers.items()}


def delta(later: Dict[str, Layer], earlier: Dict[str, Layer]) -> Dict[str, Layer]:
    """Per-layer aggregates accrued between two snapshots."""
    return {
        name: layer.minus(earlier.get(name, Layer())) for name, layer in later.items()
    }


# ---------------------------------------------------------------------- #
# wrap targets
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    Attributes:
        module: Module the caller looks the name up in.
        attr: ``name`` or ``Class.method`` inside that module.
        layer: Recorder layer the calls are charged to.
        kind: ``span`` (timed), ``count`` (counted only, for calls too
            frequent and too short to time) or ``ticket`` (timed, and
            the returned ticket's ``result()`` is timed as ``pool.wait``).
        hits: Count calls returning something other than None as hits.
    """

    module: str
    attr: str
    layer: str
    kind: str = "span"
    hits: bool = False


TARGETS: Tuple[Target, ...] = (
    Target("repro.core.allocation", "solve_canonical_milp", "highs"),
    Target("repro.core.allocation", "MIPAllocator.allocate", "milp"),
    Target("repro.core.allocation", "refine_with_spare_arrays", "refine"),
    Target("repro.core.solverpool", "refine_with_spare_arrays", "refine"),
    Target("repro.core.allocation", "operator_latency_cycles", "cost.eq10", "count"),
    Target("repro.cost.latency", "operator_latency_cycles", "cost.eq10", "count"),
    Target("repro.core.segmentation", "allocate_segment", "dp.window"),
    Target("repro.core.solverpool", "SolverPool.submit", "pool.submit", "ticket"),
    Target("repro.core.cache", "AllocationCache.lookup", "cache.lookup", hits=True),
    Target("repro.core.cache", "AllocationCache.put", "cache.put"),
    Target("repro.core.memo", "SolveMemo.lookup", "memo.lookup", hits=True),
    Target("repro.core.memo", "SolveMemo.put", "memo.put"),
    Target("repro.serve.remote", "RemoteCacheStore.get", "remote.get", hits=True),
    Target("repro.serve.remote", "RemoteCacheStore.put", "remote.put"),
    Target("repro.serve.client", "program_from_wire", "wire.decode"),
    Target("repro.pipeline.passes", "Segment.run", "pass.segment"),
    Target("repro.pipeline.passes", "FixedModeFallback.run", "pass.fixed_fallback"),
)


def resolve(target: Target):
    """``(owner, name, original)`` for a target; raises if it is gone."""
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise AttributeError(
            f"trace target {target.module}.{target.attr} no longer exists; "
            "update perfbench/pb_trace.py TARGETS"
        )
    return owner, name, vars(owner)[name]


class _TimedTicket:
    """Wraps a solver-pool ticket so waiting on it is a ``pool.wait`` span."""

    def __init__(self, ticket, recorder: Recorder) -> None:
        self._ticket = ticket
        self._recorder = recorder

    def result(self, timeout: Optional[float] = None):
        self._recorder.enter("pool.wait")
        try:
            return self._ticket.result(timeout)
        finally:
            self._recorder.exit()


def _wrapper(target: Target, original, recorder: Recorder):
    layer = target.layer
    if target.kind == "count":

        def counted(*args, **kwargs):
            recorder.count(layer)
            return original(*args, **kwargs)

        return counted

    def timed(*args, **kwargs):
        recorder.enter(layer)
        result = None
        try:
            result = original(*args, **kwargs)
            return _TimedTicket(result, recorder) if target.kind == "ticket" else result
        finally:
            recorder.exit(hit=target.hits and result is not None)

    return timed


class Installed:
    """Context manager: wrappers in place inside, originals restored after."""

    def __init__(self, recorder: Recorder, targets: Sequence[Target] = TARGETS) -> None:
        self.recorder = recorder
        self._targets = targets
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        try:
            for target in self._targets:
                owner, name, original = resolve(target)
                self._saved.append((owner, name, original))
                setattr(owner, name, _wrapper(target, original, self.recorder))
        except BaseException:
            self.__exit__()
            raise
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
