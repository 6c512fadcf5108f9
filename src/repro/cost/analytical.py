"""Segment-free analytical cost bounds (the rung-0 evaluation model).

Design-space exploration at scale needs to score a candidate (hardware,
option) point far more cheaply than running the full compile pipeline —
the same tiering CIM-Explorer and CIMFlow put in front of their flows.
This module is that cheap tier's cost model: closed-form *lower bounds*
on latency and energy computed directly from the flattened operator
profiles, with **zero allocator solves**, no segmentation DP and no
:class:`~repro.cost.latency.OperatorAllocation` bookkeeping beyond the
single-operator sweeps already exposed by :mod:`repro.cost.latency`.

The latency bound is the maximum of two quantities, each provably a
lower bound on the compiled plan's graph latency:

* **compute roofline** — ``total MACs / (num_arrays * OP_cim)``: within
  any pipelined segment, operators occupy disjoint array sets whose
  compute counts sum to at most the chip, so the segment's bottleneck
  latency is at least the segment's MACs at the whole chip's peak rate
  (mediant inequality ``max(a_i/b_i) >= sum(a_i)/sum(b_i)``); summing
  over segments telescopes to the whole graph.  Serial scheduling only
  increases the left-hand side.
* **operator bound** — for every unit, the best latency any allocation
  within the chip budget can achieve
  (:func:`~repro.cost.latency.best_split_latency`, or
  :func:`~repro.cost.latency.minimum_latency_all_compute` when memory
  mode is off, where all-compute is optimal because supply is fixed and
  the compute rate is monotone in arrays).  The compiled plan gives each
  unit *some* allocation within the budget, so its segment latency is at
  least this bound.

Inter-segment transition costs (write-back, mode switches, weight
reloads) and pipeline-fill cycles are all non-negative and deliberately
excluded — excluding them keeps the bound valid for every segmentation
the DP could choose.

The energy bound charges only activity every plan must perform, each at
the cheapest coefficient the detailed model
(:func:`repro.cost.energy.estimate_energy`) could possibly charge it:
exact MAC energy, one write + one off-chip fetch per static weight
element (weights are programmed at least once), every streamed element
at the cheapest on-chip access energy, and leakage over the latency
lower bound.

The calibration suite (``tests/test_eval.py``) ratchets both guarantees
against the registered model zoo: the analytical latency never exceeds
the compiled latency, and feasibility verdicts (delegated to
:class:`~repro.core.feasibility.FeasibilityModel` by the evaluator
layer) always agree with the compiler.

The same module proves **per-window** bounds for the segmentation DP
(:func:`window_lower_bounds`), which lets the DP skip windows that
cannot win without solving them:

* **min-max allocation bound** — each unit's best latency by array
  budget (:func:`unit_latency_tables`, every compute/memory split of
  every budget).  Any allocation gives unit ``k`` some budget ``b_k``
  with ``sum b_k <= num_arrays`` and latency ``>= best_k(b_k)``, so a
  pipelined segment's bottleneck is at least
  ``min T s.t. sum_k need_k(T) <= num_arrays`` with
  ``need_k(T) = min {b : best_k(b) <= T}``.  A serial segment is bounded
  by the sum of every unit's whole-chip best.
* **pipeline fill** — charged exactly (it depends only on the window).
* **allocation-independent transition terms** — the Eq. 2 weight
  reload (every feasible allocation holds at least each operator's
  stationary footprint, so exactly that many arrays are written) and,
  in fixed mode, the write-back of the previous boundary's live data
  beyond the native buffer (no memory-mode arrays can hold it).

``tests/test_bounds.py`` checks every window bound against the solved
cost across the model zoo.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..hardware.deha import DualModeHardwareAbstraction
from .arithmetic import OperatorProfile
from .energy import EnergyParameters
from .latency import (
    INFEASIBLE_LATENCY,
    best_split_latency,
    minimum_latency_all_compute,
    operator_latency_cycles_batch,
)

__all__ = [
    "AnalyticalEstimate",
    "BOUND_SLACK",
    "analytical_energy_bound",
    "analytical_graph_estimate",
    "analytical_latency_bound",
    "bound_exceeds",
    "compute_roofline_cycles",
    "operator_latency_bound",
    "plan_lower_bound",
    "unit_latency_tables",
    "window_lower_bounds",
]


@dataclass(frozen=True)
class AnalyticalEstimate:
    """Closed-form lower-bound estimate for one graph on one chip.

    Attributes:
        graph_cycles: Latency lower bound of one graph pass.
        end_to_end_cycles: ``graph_cycles`` times the block repeat.
        energy_pj: Energy lower bound of one graph pass (picojoules).
        end_to_end_mj: End-to-end energy lower bound (millijoules).
        min_peak_arrays: Fewest arrays any feasible plan occupies at its
            busiest operator (the largest single-unit footprint) — a
            lower bound on the compiled plan's peak array usage.
        bottleneck: Which bound is active: ``"compute-roofline"`` (the
            chip-wide MAC rate limits the graph) or ``"operator"`` (one
            operator's best achievable latency does).
        block_repeat: The multiplier applied for end-to-end figures.
    """

    graph_cycles: float
    end_to_end_cycles: float
    energy_pj: float
    end_to_end_mj: float
    min_peak_arrays: int
    bottleneck: str
    block_repeat: float = 1.0


def compute_roofline_cycles(
    profiles: Iterable[OperatorProfile], hardware: DualModeHardwareAbstraction
) -> float:
    """Graph MACs at the whole chip's peak compute rate (cycles)."""
    total_macs = sum(profile.macs for profile in profiles)
    if total_macs <= 0:
        return 0.0
    peak_rate = hardware.num_arrays * hardware.op_cim
    if peak_rate <= 0:
        return INFEASIBLE_LATENCY
    return total_macs / peak_rate


def operator_latency_bound(
    profile: OperatorProfile,
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
) -> float:
    """Best latency any within-budget allocation achieves for one unit.

    With memory mode allowed this sweeps every compute/memory split of
    the whole chip; without it, all-compute is optimal (supply does not
    depend on compute arrays, and the compute rate is monotone), so the
    closed-form all-compute latency is used directly.
    """
    if allow_memory_mode:
        latency, _ = best_split_latency(profile, hardware.num_arrays, hardware)
        return latency
    return minimum_latency_all_compute(profile, hardware.num_arrays, hardware)


def analytical_latency_bound(
    profiles: Sequence[OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
) -> Tuple[float, str]:
    """Latency lower bound of one graph pass, with the active bound.

    Returns:
        ``(cycles, bottleneck)`` where ``bottleneck`` is
        ``"compute-roofline"`` or ``"operator"`` (see module docstring
        for why each is a true lower bound).
    """
    roofline = compute_roofline_cycles(profiles, hardware)
    operator_bound = max(
        (
            operator_latency_bound(profile, hardware, allow_memory_mode)
            for profile in profiles
        ),
        default=0.0,
    )
    if operator_bound > roofline:
        return operator_bound, "operator"
    return roofline, "compute-roofline"


def analytical_energy_bound(
    profiles: Sequence[OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    cycles_lower_bound: float,
    parameters: Optional[EnergyParameters] = None,
) -> float:
    """Energy lower bound of one graph pass (picojoules).

    Every term charges activity the detailed model charges for any
    compiled plan, at the cheapest coefficient that model could apply:
    MAC energy is exact; static weights are written (and fetched across
    the off-chip link) at least once; streamed data moves at least once
    at the cheapest on-chip access energy; leakage accrues over at least
    the latency lower bound.  Mode-switch and inter-segment write-back
    energy are non-negative extras and are excluded.
    """
    parameters = (parameters or EnergyParameters()).scaled_for(hardware)
    cheapest_access = min(
        parameters.array_read_pj_per_element, parameters.buffer_pj_per_element
    )
    energy = 0.0
    for profile in profiles:
        energy += profile.macs * parameters.mac_pj
        energy += profile.streamed_elements * cheapest_access
        if profile.has_static_weight:
            energy += profile.weight_elements * (
                parameters.array_write_pj_per_element
                + parameters.offchip_pj_per_element
            )
    if math.isfinite(cycles_lower_bound):
        energy += cycles_lower_bound * parameters.leakage_pj_per_cycle
    return energy


def analytical_graph_estimate(
    profiles: Sequence[OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
    block_repeat: float = 1.0,
    parameters: Optional[EnergyParameters] = None,
) -> AnalyticalEstimate:
    """Assemble the full rung-0 estimate for a flattened profile list.

    Feasibility is deliberately *not* decided here — the evaluator layer
    asks the shared :class:`~repro.core.feasibility.FeasibilityModel`,
    the same predicates the allocators use, so the two tiers cannot
    drift apart.  On an infeasible candidate the bounds are still
    well-defined (and still lower bounds) but meaningless.
    """
    cycles, bottleneck = analytical_latency_bound(
        profiles, hardware, allow_memory_mode
    )
    energy_pj = analytical_energy_bound(profiles, hardware, cycles, parameters)
    min_peak_arrays = max(
        (max(1, profile.min_compute_arrays(hardware)) for profile in profiles),
        default=0,
    )
    return AnalyticalEstimate(
        graph_cycles=cycles,
        end_to_end_cycles=cycles * block_repeat,
        energy_pj=energy_pj,
        end_to_end_mj=energy_pj * block_repeat * 1e-9,
        min_peak_arrays=min_peak_arrays,
        bottleneck=bottleneck,
        block_repeat=block_repeat,
    )


# ---------------------------------------------------------------------- #
# per-window bounds for the segmentation DP
# ---------------------------------------------------------------------- #
#: Relative margin a bound must clear before it proves anything.  The
#: costs it is compared with are float sums taken in a different order,
#: so their rounding (a few ulps per term) must never let an exact bound
#: appear above the cost it bounds; 1e-9 dwarfs that rounding for any
#: realistic number of terms and loses no practical pruning.
BOUND_SLACK = 1e-9

#: Capacity of the process-wide per-unit table memo (oldest evicted).
UNIT_TABLE_ENTRIES = 8192

_unit_tables: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_unit_tables_lock = threading.Lock()


def bound_exceeds(bound: float, cost: float) -> bool:
    """Whether lower bound ``bound`` proves its cost strictly above ``cost``."""
    return bound * (1.0 - BOUND_SLACK) > cost


def _budget_table(
    profile: OperatorProfile,
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool,
) -> np.ndarray:
    """``table[b]``: best Eq. 10 latency of ``profile`` within ``b`` arrays.

    Scores every (compute, memory) pair the allocators could hand out —
    compute from the operand footprint up, memory only when allowed —
    with the batch Eq. 10 kernel (bitwise equal to the scalar one), then
    takes the running minimum over budgets.  ``inf`` below the footprint.
    """
    arrays = hardware.num_arrays
    table = np.full(arrays + 1, INFEASIBLE_LATENCY)
    floor = max(1, profile.min_compute_arrays(hardware))
    if floor <= arrays:
        compute = np.arange(floor, arrays + 1, dtype=np.int64)[:, None]
        memory = np.arange(0, arrays - floor + 1 if allow_memory_mode else 1, dtype=np.int64)[None, :]
        latency = operator_latency_cycles_batch(profile, compute, memory, hardware)
        totals = compute + memory
        inside = totals <= arrays
        np.minimum.at(table, totals[inside], latency[inside])
        table = np.minimum.accumulate(table)
    table.flags.writeable = False
    return table


def unit_latency_tables(
    profiles: Sequence[OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    allow_memory_mode: bool = True,
) -> np.ndarray:
    """Best latency by array budget for each unit, shape ``(m, num_arrays + 1)``.

    Row ``k`` is non-increasing; entry ``b`` is the lowest latency unit
    ``k`` reaches with at most ``b`` arrays.  Rows are memoised
    process-wide under ``(profile, hardware.fingerprint(),
    allow_memory_mode)``, so warm compiles and daemon requests reuse
    them instead of re-scoring the grid.
    """
    fingerprint = hardware.fingerprint()
    rows = []
    for profile in profiles:
        key = (profile, fingerprint, allow_memory_mode)
        with _unit_tables_lock:
            row = _unit_tables.get(key)
            if row is not None:
                _unit_tables.move_to_end(key)
        if row is None:
            row = _budget_table(profile, hardware, allow_memory_mode)
            with _unit_tables_lock:
                _unit_tables[key] = row
                while len(_unit_tables) > UNIT_TABLE_ENTRIES:
                    _unit_tables.popitem(last=False)
        rows.append(row)
    if not rows:
        return np.empty((0, hardware.num_arrays + 1))
    return np.vstack(rows)


def _minmax_bounds(
    tables: np.ndarray, num_arrays: int, members: np.ndarray, inside: np.ndarray
) -> np.ndarray:
    """``min T s.t. sum need_k(T) <= num_arrays`` for every window at once.

    ``members[w]`` lists window ``w``'s units (padding masked out by
    ``inside``).  The optimum is one of the table values, so the search
    runs over their sorted union in rank space: ``need_k(rank r)`` is
    the number of unit ``k``'s table entries above rank ``r``, counted
    for all (window, member) pairs with one ``searchsorted`` over the
    rows laid end to end (row ``k`` offset by ``k * stride``).
    ``sum need`` is non-increasing in ``T``, so a vectorised bisection
    over ranks finds every window's minimum in ``log2(#values)`` steps.
    A dense table of window sums over every value would need
    ``windows x #values`` memory — hundreds of MB for a long graph on a
    small chip — for the same answer.
    """
    values = np.sort(tables[np.isfinite(tables)])
    # Dedupe by hand: np.unique's first call in a process costs ~20 ms
    # of lazy imports, which every fresh daemon would pay.
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    m, budgets = tables.shape
    ranks = np.searchsorted(values, tables)  # inf -> len(values)
    stride = len(values) + 1
    offsets = np.arange(m, dtype=np.int64) * stride
    flat = (ranks[:, ::-1] + offsets[:, None]).ravel()
    member_offsets = offsets[members]
    member_base = members * budgets
    lo = np.zeros(len(members), dtype=np.int64)
    hi = np.full(len(members), len(values), dtype=np.int64)
    active = lo < hi
    while active.any():
        mid = (lo + hi) // 2
        at_most = np.searchsorted(flat, member_offsets + mid[:, None], side="right")
        need = budgets - (at_most - member_base)
        fits = np.where(inside, need, 0).sum(axis=1) <= num_arrays
        hi = np.where(active & fits, mid, hi)
        lo = np.where(active & ~fits, mid + 1, lo)
        active = lo < hi
    return np.append(values, INFEASIBLE_LATENCY)[lo]


def window_lower_bounds(
    profiles: Sequence[OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    max_window: int,
    pipelined: bool = True,
    allow_memory_mode: bool = True,
    live_elements: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Lower bound on every DP edge cost, shape ``(m, max_window)``.

    Entry ``[i, w - 1]`` bounds ``T_intra + T_inter`` of the segment of
    units ``i .. i + w - 1`` under *any* allocation and predecessor (see
    the module docstring); windows running past the end are ``inf``.

    Args:
        profiles: Unit profiles in schedule order.
        max_window: The DP window (``max_segment_operators``).
        pipelined: Segment scheduling (min-max bound + fill, or the sum
            of per-unit bounds).
        allow_memory_mode: Dual-mode (True) or fixed-mode allocation.
        live_elements: Live elements at every boundary (the segmenter's
            liveness vector); required for the fixed-mode write-back
            term, ignored in dual mode.
    """
    m = len(profiles)
    bounds = np.full((m, max_window), INFEASIBLE_LATENCY)
    if m == 0:
        return bounds
    tables = unit_latency_tables(profiles, hardware, allow_memory_mode)
    starts, lengths = np.nonzero(
        np.arange(m)[:, None] + np.arange(1, max_window + 1) <= m
    )
    lengths = lengths + 1
    step = np.arange(max_window)
    members = np.minimum(starts[:, None] + step, m - 1)
    inside = step < lengths[:, None]
    if pipelined:
        intra = _minmax_bounds(tables, hardware.num_arrays, members, inside)
        intra = intra + lengths * hardware.compute_latency_cycles
    else:
        intra = np.where(inside, tables[members, -1], 0.0).sum(axis=1)
    reload = np.array(
        [
            profile.min_compute_arrays(hardware) * hardware.array_write_latency_cycles
            if profile.has_static_weight
            else 0.0
            for profile in profiles
        ]
    )
    bounds[starts, lengths - 1] = intra + np.where(inside, reload[members], 0.0).max(axis=1)
    if not allow_memory_mode and live_elements is not None:
        live = np.asarray(live_elements, dtype=np.float64)
        overflow = np.maximum(0.0, live - hardware.buffer_elements)
        writeback = np.concatenate(([0.0], 2.0 * overflow[:-1] / hardware.d_extern))
        bounds += writeback[:, None]
    return bounds


def plan_lower_bound(bounds: np.ndarray) -> float:
    """Lower bound on any segmentation's total cost from its edge bounds.

    A backward DP over :func:`window_lower_bounds`: the cheapest way to
    cover units ``i..m-1`` with windows, each charged its bound.  Every
    plan the segmentation DP can return is one such cover, and each of
    its segments costs at least its window's bound.
    """
    m, width = bounds.shape
    best = np.full(m + 1, INFEASIBLE_LATENCY)
    best[m] = 0.0
    for i in range(m - 1, -1, -1):
        reach = min(width, m - i)
        best[i] = np.min(bounds[i, :reach] + best[i + 1 : i + 1 + reach])
    return float(best[0])
