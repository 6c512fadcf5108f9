"""Calibration of the segmentation DP's window bounds and what they skip.

The DP prunes a candidate window when its lower bound
(:func:`repro.cost.analytical.window_lower_bounds`) proves it cannot
win, and the pipeline skips the fixed-mode fallback pass when the bound
on the whole fixed plan (:func:`~repro.cost.analytical.plan_lower_bound`)
proves it cannot beat the dual-mode plan.  Both are exact only while no
bound ever exceeds the cost it bounds; this suite checks that on every
window of the calibration zoo, and that the skips leave every program
bit-identical to the frozen reference (which never skips the fallback).

It also covers the solver time-out path: a MILP stopped by its time
limit is answered by greedy, tagged ``milp-timeout``, counted, and kept
out of every cache tier.
"""

from __future__ import annotations

import itertools
from typing import Dict

import numpy as np
import pytest

from repro.core import CMSwitchCompiler, CompilerOptions
from repro.core._reference import reference_compile
from repro.core.allocation import (
    TIMEOUT_SOLVER,
    MIPAllocator,
    allocate_segment,
)
from repro.core.cache import AllocationCache
from repro.core.memo import SolveMemo
from repro.core.segmentation import (
    NetworkSegmenter,
    SegmentationOptions,
    flatten_graph,
    plan_cost,
)
from repro.core.solverpool import SolverPool
from repro.core.store import DiskCacheStore
from repro.cost.analytical import (
    bound_exceeds,
    unit_latency_tables,
    window_lower_bounds,
)
from repro.cost.arithmetic import profile_graph
from repro.cost.latency import best_split_latency
from repro.cost.switching import (
    SegmentResources,
    weight_reload_cycles,
    writeback_cycles,
)
from repro.hardware import dynaplasia, small_test_chip
from repro.models import Workload, build_model
from repro.obs import Observability

WORKLOAD = Workload(batch_size=1, seq_len=16)

#: (chip, model) pairs whose every window is solved and checked, under
#: every {dual, fixed} x {pipelined, serial} x {milp, greedy} setting.
#: The test-chip zoo mirrors the analytical tier's calibration zoo;
#: on DynaPlasia the transformer families stand in for the CNNs, whose
#: full window sets take tens of seconds to solve (mobilenet and
#: resnet18 are covered there through the skip checks below).
CALIBRATION = [
    ("small-test-chip", "tiny-cnn"),
    ("small-test-chip", "tiny-mlp"),
    ("small-test-chip", "tiny-transformer"),
    ("small-test-chip", "mobilenet"),
    ("dynaplasia", "tiny-cnn"),
    ("dynaplasia", "tiny-mlp"),
    ("dynaplasia", "tiny-transformer"),
    ("dynaplasia", "bert"),
    ("dynaplasia", "gpt2"),
    ("dynaplasia", "llama2-7b"),
]

CHIPS = {"small-test-chip": small_test_chip, "dynaplasia": dynaplasia}


def _solved_edge_floor(segmenter, units, start, end, allocation, hardware):
    """The part of a solved edge's cost every predecessor pays.

    Intra latency plus the Eq. 2 reload, plus (fixed mode) the write-back
    of the previous boundary's live data; the mode-switch term and the
    dual-mode write-back are non-negative extras on top.
    """
    profiles = segmenter._segment_profiles(units, start, end)
    cost = allocation.latency_cycles + weight_reload_cycles(
        profiles, allocation.allocations, hardware
    )
    if not segmenter.options.allow_memory_mode and start > 0:
        previous = SegmentResources(0, 0, int(segmenter._liveness[start - 1]))
        cost += writeback_cycles(
            previous, SegmentResources(0, 0), hardware, allow_boundary_buffering=False
        )
    return cost


@pytest.mark.parametrize("chip_name,model", CALIBRATION)
def test_window_bounds_never_exceed_the_solved_cost(chip_name, model):
    hardware = CHIPS[chip_name]()
    units = flatten_graph(build_model(model, WORKLOAD), hardware)
    checked = 0
    for memory, pipelined, milp in itertools.product((True, False), repeat=3):
        options = SegmentationOptions(
            allow_memory_mode=memory,
            pipelined=pipelined,
            use_milp=milp,
            solve_memo=SolveMemo(),
        )
        segmenter = NetworkSegmenter(hardware, options)
        segmenter._prepare(units)
        bounds = segmenter._bounds
        width = options.max_segment_operators
        assert bounds.shape == (len(units), width)
        for start in range(len(units)):
            for length in range(1, width + 1):
                end = start + length - 1
                if end >= len(units):
                    assert bounds[start, length - 1] == np.inf
                    continue
                allocation = segmenter._allocate(units, start, end)
                if not allocation.feasible:
                    continue
                solved = _solved_edge_floor(
                    segmenter, units, start, end, allocation, hardware
                )
                bound = bounds[start, length - 1]
                assert 0.0 < bound and not bound_exceeds(bound, solved), (
                    model, memory, pipelined, milp, start, end, bound, solved
                )
                checked += 1
    assert checked > 0


def test_unit_tables_are_non_increasing_and_reach_the_best_split():
    hardware = dynaplasia()
    profiles = list(profile_graph(build_model("tiny-cnn", WORKLOAD)).values())
    dual = unit_latency_tables(profiles, hardware, allow_memory_mode=True)
    fixed = unit_latency_tables(profiles, hardware, allow_memory_mode=False)
    assert dual.shape == fixed.shape == (len(profiles), hardware.num_arrays + 1)
    assert np.all(np.diff(dual, axis=1) <= 0) and np.all(np.diff(fixed, axis=1) <= 0)
    assert np.all(dual <= fixed)
    for row, profile in zip(dual, profiles):
        # ``<=``: the table also admits allocations leaving arrays idle.
        assert row[-1] <= best_split_latency(profile, hardware.num_arrays, hardware)[0]
        floor = max(1, profile.min_compute_arrays(hardware))
        assert np.all(np.isinf(row[:floor])) and np.isfinite(row[floor])


def test_unit_tables_are_memoised_process_wide(monkeypatch):
    import repro.cost.analytical as analytical

    # A chip no other test uses, so the memo starts cold for its key.
    hardware = small_test_chip(num_arrays=7)
    profiles = list(profile_graph(build_model("tiny-mlp", WORKLOAD)).values())
    first = unit_latency_tables(profiles, hardware)
    built = []
    original = analytical._budget_table
    monkeypatch.setattr(
        analytical,
        "_budget_table",
        lambda *args: built.append(args) or original(*args),
    )
    again = unit_latency_tables(profiles, hardware)
    assert built == [] and np.array_equal(first, again)
    unit_latency_tables(profiles, hardware, allow_memory_mode=False)
    assert len(built) == len(profiles)  # a different key builds afresh


def test_serial_bound_is_the_sum_of_unit_bounds():
    hardware = small_test_chip()
    profiles = list(profile_graph(build_model("tiny-mlp", WORKLOAD)).values())
    tables = unit_latency_tables(profiles, hardware)
    serial = window_lower_bounds(profiles, hardware, 2, pipelined=False)
    reload = [
        p.min_compute_arrays(hardware) * hardware.array_write_latency_cycles
        if p.has_static_weight
        else 0.0
        for p in profiles
    ]
    assert serial[0, 0] == tables[0, -1] + reload[0]
    assert serial[0, 1] == pytest.approx(
        tables[0, -1] + tables[1, -1] + max(reload[0], reload[1])
    )
    assert serial[-1, 1] == np.inf


# ---------------------------------------------------------------------- #
# the fixed-mode skip, against the frozen reference
# ---------------------------------------------------------------------- #
#: The benchmark's compile models on DynaPlasia.
SKIP_MODELS = {
    "mobilenet": Workload(),
    "resnet18": Workload(),
    "bert": Workload(batch_size=1, seq_len=32),
}


@pytest.fixture(scope="module")
def dynaplasia_runs() -> Dict[str, dict]:
    """Pipeline compile, fixed-mode plan and reference per model.

    One shared cache: the fixed-mode segmentation and the reference
    compile reuse the pipeline's solves (cache hits are exact), which
    keeps the module to one cold solve per distinct window.
    """
    hardware = dynaplasia()
    options = CompilerOptions(generate_code=False)
    runs = {}
    for model, workload in SKIP_MODELS.items():
        graph = build_model(model, workload)
        cache = AllocationCache()
        obs = Observability.create()
        program = CMSwitchCompiler(hardware, options, cache=cache, obs=obs).compile(graph)
        fixed_options = options.to_segmentation_options()
        fixed_options.allow_memory_mode = False
        segmenter = NetworkSegmenter(hardware, fixed_options, cache=cache)
        units = flatten_graph(graph, hardware)
        bound = segmenter.plan_lower_bound(units)
        fixed = segmenter.segment(graph, units=units)
        runs[model] = {
            "program": program,
            "obs": obs,
            "fixed_bound": bound,
            "fixed_cost": plan_cost(fixed),
            "reference": reference_compile(graph, hardware, options, cache=cache),
        }
    return runs


@pytest.mark.parametrize("model", sorted(SKIP_MODELS))
def test_fixed_plan_bound_never_exceeds_the_fixed_plan(model, dynaplasia_runs):
    run = dynaplasia_runs[model]
    assert 0.0 < run["fixed_bound"]
    assert not bound_exceeds(run["fixed_bound"], run["fixed_cost"])


@pytest.mark.parametrize("model", ["tiny-cnn", "tiny-mlp", "tiny-transformer"])
def test_fixed_plan_bound_on_the_test_chip(model):
    hardware = small_test_chip()
    graph = build_model(model, WORKLOAD)
    options = SegmentationOptions(allow_memory_mode=False)
    segmenter = NetworkSegmenter(hardware, options)
    units = flatten_graph(graph, hardware)
    bound = segmenter.plan_lower_bound(units)
    assert not bound_exceeds(bound, plan_cost(segmenter.segment(graph, units=units)))


@pytest.mark.parametrize(
    "model,skipped", [("mobilenet", True), ("resnet18", True), ("bert", False)]
)
def test_fixed_fallback_skip_keeps_the_reference_program(model, skipped, dynaplasia_runs):
    run = dynaplasia_runs[model]
    program = run["program"]
    assert program.fingerprint() == run["reference"].fingerprint()
    assert program.stats["fixed_fallback_skipped"] is skipped
    assert not program.metadata["fixed_mode_fallback_used"]
    (span,) = [s for s in run["obs"].tracer.spans() if s.name == "fixed_fallback"]
    assert span.attrs["skipped"] is skipped
    assert span.attrs["plan_bound"] == pytest.approx(run["fixed_bound"])
    assert span.attrs["dual_cost"] == plan_cost_of(program)
    counters = run["obs"].metrics.to_dict()["counters"]
    assert counters.get("fixed_fallback.skipped", 0) == int(skipped)
    solves_under_pass = [
        s for s in run["obs"].tracer.spans()
        if s.name == "allocator.solve" and s.parent_id == span.span_id
    ]
    if skipped:
        # The pass proved the fixed plan loses, and resolved no window.
        assert bound_exceeds(run["fixed_bound"], span.attrs["dual_cost"])
        assert solves_under_pass == []
    else:
        assert solves_under_pass


def plan_cost_of(program) -> float:
    return sum(segment.total_cycles for segment in program.segments)


@pytest.mark.parametrize("model", sorted(SKIP_MODELS))
def test_pruned_windows_are_counted_and_mirrored(model, dynaplasia_runs):
    program = dynaplasia_runs[model]["program"]
    counters = dynaplasia_runs[model]["obs"].metrics.to_dict()["counters"]
    assert program.stats["dp_windows_pruned"] > 0
    assert counters["allocator.pruned"] == program.stats["dp_windows_pruned"]
    assert counters["allocator.solves"] == program.stats["allocator_solves"]


def test_pool_prunes_exactly_what_the_inline_dp_prunes():
    hardware = dynaplasia()
    graph = build_model("tiny-transformer", WORKLOAD)
    units = flatten_graph(graph, hardware)
    inline = NetworkSegmenter(hardware, SegmentationOptions())
    expected = inline.choose_boundaries(graph, units)
    with SolverPool(2) as pool:
        pooled = NetworkSegmenter(hardware, SegmentationOptions(solver_pool=pool))
        assert pooled.choose_boundaries(graph, units) == expected
    assert inline.windows_pruned > 0
    assert (pooled.windows_pruned, pooled.allocation_calls) == (
        inline.windows_pruned,
        inline.allocation_calls,
    )


# ---------------------------------------------------------------------- #
# solver time-outs
# ---------------------------------------------------------------------- #
class RecordingRemote:
    """Stand-in remote tier that records every write-through."""

    def __init__(self) -> None:
        self.puts = []

    def get(self, key):
        return None

    def put(self, key, entry) -> None:
        self.puts.append(key)


def test_timed_out_solve_is_tagged_and_never_stored(tmp_path):
    hardware = dynaplasia()
    profiles = dict(list(profile_graph(build_model("bert", WORKLOAD)).items())[:4])
    store = DiskCacheStore(tmp_path / "store")
    remote = RecordingRemote()
    cache = AllocationCache(store=store, remote=remote)
    memo = SolveMemo()
    result = allocate_segment(
        profiles,
        hardware,
        allocator=MIPAllocator(time_limit_seconds=1e-9),
        cache=cache,
        memo=memo,
    )
    assert result.solver == TIMEOUT_SOLVER
    assert result.feasible and not result.exact
    assert len(cache) == 0 and cache.stats.stores == 0
    assert len(store) == 0
    assert remote.puts == []
    assert len(memo) == 0
    # The same window with room to finish is an exact, cacheable solve.
    exact = allocate_segment(profiles, hardware, cache=cache, memo=memo)
    assert exact.solver == "milp" and len(cache) == 1 and len(memo) == 1


def test_timeouts_are_counted_in_stats_and_metrics(monkeypatch):
    monkeypatch.setattr(
        SegmentationOptions,
        "build_allocator",
        lambda self: MIPAllocator(self.allow_memory_mode, time_limit_seconds=1e-9),
    )
    cache = AllocationCache()
    obs = Observability.create()
    program = CMSwitchCompiler(
        dynaplasia(), CompilerOptions(generate_code=False), cache=cache, obs=obs
    ).compile(build_model("tiny-cnn", WORKLOAD))
    timeouts = program.stats["allocator_timeouts"]
    assert timeouts == program.stats["allocator_solves"] > 0
    counters = obs.metrics.to_dict()["counters"]
    assert counters["allocator.timeouts"] == timeouts
    assert counters[f"allocator.solves.{TIMEOUT_SOLVER}"] == timeouts
    assert len(cache) == 0
