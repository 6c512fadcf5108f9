"""Tests of the benchmark's own helpers (not of ``repro``).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pb_probe  # noqa: E402
import pb_stats  # noqa: E402
import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
def test_p95_needs_ten_samples_beyond_it():
    assert pb_stats.percentile(list(range(199)), 95) is None
    assert pb_stats.percentile(list(range(200)), 95) == 189.0


def test_percentile_is_nearest_rank_on_observed_values():
    values = [float(v) for v in range(1, 1001)]
    assert pb_stats.percentile(values, 50) == 500.0
    assert pb_stats.percentile(values, 99) == 990.0
    assert pb_stats.percentile(list(reversed(values)), 99) == 990.0


def test_percentile_rejects_out_of_range_and_empty():
    with pytest.raises(ValueError):
        pb_stats.percentile([1.0], 100)
    assert pb_stats.percentile([], 50) is None


def test_median_and_geomean():
    assert pb_stats.median([3.0, 1.0, 2.0]) == 2.0
    assert pb_stats.geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        pb_stats.geomean([1.0, 0.0])


# ---------------------------------------------------------------------- #
# spans and self time
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    recorder = pb_trace.Recorder(clock)
    recorder.enter("pass")          # t=0
    clock.now = 1.0
    recorder.enter("alloc")         # t=1
    clock.now = 2.0
    recorder.enter("highs")         # t=2
    clock.now = 5.0
    recorder.exit()                 # highs 3 s
    clock.now = 6.0
    recorder.exit()                 # alloc 5 s, self 2 s
    recorder.enter("cache")         # t=6
    clock.now = 6.5
    recorder.exit(hit=True)         # cache 0.5 s
    clock.now = 10.0
    recorder.exit()                 # pass 10 s, self 10 - 5 - 0.5
    layers = recorder.snapshot()
    assert layers["highs"].self_s == 3.0
    assert layers["alloc"].busy_s == 5.0 and layers["alloc"].self_s == 2.0
    assert layers["pass"].busy_s == 10.0 and layers["pass"].self_s == 4.5
    assert layers["cache"].hits == 1
    assert layers["pass"].max_s == 10.0


def test_snapshot_delta_counts_only_the_interval():
    clock = FakeClock()
    recorder = pb_trace.Recorder(clock)
    recorder.count("eq10")
    before = recorder.snapshot()
    recorder.count("eq10")
    recorder.count("eq10")
    recorder.enter("highs")
    clock.now = 1.0
    recorder.exit()
    later = pb_trace.delta(recorder.snapshot(), before)
    assert later["eq10"].calls == 2
    assert later["highs"].calls == 1 and later["highs"].busy_s == 1.0


def test_installed_wraps_and_restores():
    module = types.ModuleType("fake_layer_module")

    def solve(x):
        return x * 2

    def lookup(key):
        return None if key < 0 else key

    module.solve = solve
    module.lookup = lookup
    sys.modules[module.__name__] = module
    targets = (
        pb_trace.Target(module.__name__, "solve", "highs"),
        pb_trace.Target(module.__name__, "lookup", "cache.lookup", hits=True),
    )
    recorder = pb_trace.Recorder()
    try:
        with pb_trace.Installed(recorder, targets):
            assert module.solve(2) == 4
            module.lookup(-1)
            module.lookup(3)
        assert module.solve is solve and module.lookup is lookup
    finally:
        del sys.modules[module.__name__]
    layers = recorder.snapshot()
    assert layers["highs"].calls == 1
    assert layers["cache.lookup"].calls == 2 and layers["cache.lookup"].hits == 1


def test_missing_target_fails_loudly_and_restores_earlier_wraps():
    module = types.ModuleType("fake_renamed_module")
    module.present = lambda: 1
    original = module.present
    sys.modules[module.__name__] = module
    targets = (
        pb_trace.Target(module.__name__, "present", "a"),
        pb_trace.Target(module.__name__, "renamed_away", "b"),
    )
    try:
        with pytest.raises(AttributeError, match="renamed_away"):
            with pb_trace.Installed(pb_trace.Recorder(), targets):
                pass
        assert module.present is original
    finally:
        del sys.modules[module.__name__]


def test_every_repro_target_exists():
    pytest.importorskip("repro")
    for target in pb_trace.TARGETS:
        pb_trace.resolve(target)


# ---------------------------------------------------------------------- #
# host probe
# ---------------------------------------------------------------------- #
def _fake_probe(durations, objective=pb_probe.EXPECTED_OBJECTIVE):
    """A HostProbe whose solves take ``durations`` in turn."""
    clock = FakeClock()
    steps = iter(durations)

    def solve() -> float:
        clock.now += next(steps)
        return objective

    return pb_probe.HostProbe(solve=solve, clock=clock)


def test_probe_factor_is_reference_over_median_probe():
    # The first solve only loads the solver and is not a sample.
    probe = _fake_probe([9.0, 0.1, 0.3, 0.2])
    for _ in range(3):
        probe.probe()
    assert probe.probes == pytest.approx([0.1, 0.3, 0.2])
    assert probe.factor() == pytest.approx(pb_probe.REFERENCE_S / 0.2)


def test_probe_rejects_a_wrong_solve():
    with pytest.raises(RuntimeError):
        _fake_probe([0.1], objective=0.0)


def test_probe_knapsack_reaches_its_recorded_optimum():
    pytest.importorskip("scipy")
    probe = pb_probe.HostProbe()
    probe.probe()
    assert probe.probes[0] > 0.0


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
def _first(seed, client, count):
    return list(itertools.islice(pb_workloads.requests(seed, client), count))


def test_seed_fixes_model_order_and_request_sequence():
    assert pb_workloads.model_order(7) == pb_workloads.model_order(7)
    assert sorted(pb_workloads.model_order(7)) == sorted(pb_workloads.COMPILE_MODELS)
    assert _first(7, 0, 50) == _first(7, 0, 50)
    assert _first(7, 0, 50) != _first(7, 1, 50)
    assert _first(7, 0, 50) != _first(8, 0, 50)
    assert set(_first(7, 0, 200)) == set(pb_workloads.SERVE_MIX)
    orders = {tuple(pb_workloads.model_order(seed)) for seed in range(20)}
    assert len(orders) > 1


# ---------------------------------------------------------------------- #
# the benchmark definition
# ---------------------------------------------------------------------- #
def test_benchmark_json_lists_exactly_the_reported_metrics():
    definition = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert {w["name"] for w in definition["workloads"]} == set(pb_workloads.WORKLOADS)
    for key, units in (
        ("end_to_end", pb_workloads.E2E_UNITS),
        ("per_layer", pb_workloads.PER_LAYER_UNITS),
    ):
        assert {m["name"]: m["unit"] for m in definition[key]} == units
