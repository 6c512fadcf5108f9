"""Per-segment dual-mode resource allocation (§4.3.2 of the paper).

Given the operators of one network segment, the allocator decides how many
arrays each operator receives in compute mode and how many in memory mode
so that the pipelined segment latency (Eq. 9 with the Eq. 10 latency
model) is minimised under the chip's array budget (Eq. 8).

Two interchangeable engines are provided:

* :class:`MIPAllocator` — the paper's approach: a mixed-integer program.
  For every operator a small Pareto set of candidate ``(compute, memory)``
  allocations is enumerated; binary selection variables pick one candidate
  per operator, a continuous makespan variable ``T`` upper-bounds every
  selected latency, and the array budget couples the operators.  The MILP
  is solved with ``scipy.optimize.milp`` (HiGHS) — the offline stand-in
  for the Gurobi solver used in the paper.
* :class:`GreedyAllocator` — a fast marginal-gain heuristic used as a
  fallback, as a cross-check in tests and for the allocation ablation.

Both return an :class:`AllocationResult`; leftover arrays are always
redistributed by :func:`refine_with_spare_arrays` (weight duplication and
extra buffering, the paper's post-allocation optimisation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cost.arithmetic import OperatorProfile
from ..cost.latency import (
    INFEASIBLE_LATENCY,
    OperatorAllocation,
    operator_latency_cycles,
    operator_latency_cycles_batch,
    segment_latency_cycles,
)
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.transforms import ceil_div
from ._highs import OPTIMAL, TIME_LIMIT, solve_canonical_milp
from .feasibility import FeasibilityModel

#: Solver tag of a MILP stopped by its time limit and answered by the
#: greedy fallback.  Such a result depends on host speed, so it is
#: served to the requesting compile but never stored in a cache tier.
TIMEOUT_SOLVER = "milp-timeout"


@dataclass
class AllocationResult:
    """Outcome of allocating one segment.

    Attributes:
        allocations: Per-operator allocation.
        latency_cycles: Pipelined segment latency under the allocation.
        feasible: Whether the segment fits the chip at all.
        solver: Which engine produced the result ("milp", "greedy",
            "single", "infeasible", or :data:`TIMEOUT_SOLVER` when the
            MILP hit its time limit and greedy answered).
        from_cache: Whether the result was served from a shared
            :class:`~repro.core.cache.AllocationCache` instead of a fresh
            solve (used by compile statistics).
        from_disk: Whether the serving cache tier was the persistent
            :class:`~repro.core.store.DiskCacheStore` (implies
            ``from_cache``; lets compile statistics show warm-start
            behaviour per job).
    """

    allocations: Dict[str, OperatorAllocation]
    latency_cycles: float
    feasible: bool
    solver: str
    from_cache: bool = False
    from_disk: bool = False

    @property
    def total_arrays(self) -> int:
        """Total arrays used."""
        return sum(a.total_arrays for a in self.allocations.values())

    @property
    def exact(self) -> bool:
        """Whether the result is independent of host speed (cacheable)."""
        return self.solver != TIMEOUT_SOLVER

    @property
    def compute_arrays(self) -> int:
        """Total compute-mode arrays used."""
        return sum(a.compute_arrays for a in self.allocations.values())

    @property
    def memory_arrays(self) -> int:
        """Total memory-mode arrays used."""
        return sum(a.memory_arrays for a in self.allocations.values())


def infeasible_result() -> AllocationResult:
    """Result representing a segment that cannot be mapped onto the chip."""
    return AllocationResult(
        allocations={}, latency_cycles=INFEASIBLE_LATENCY, feasible=False, solver="infeasible"
    )


def minimum_compute_arrays(
    profiles: Mapping[str, OperatorProfile], hardware: DualModeHardwareAbstraction
) -> int:
    """Fewest compute arrays the segment needs just to hold its operands.

    Delegates to the shared :class:`~repro.core.feasibility
    .FeasibilityModel`, which the analytical evaluation tier consults
    through the same predicates — the two tiers can never disagree about
    what fits.
    """
    return FeasibilityModel(hardware).minimum_compute_arrays(profiles)


def segment_fits(
    profiles: Mapping[str, OperatorProfile],
    hardware: DualModeHardwareAbstraction,
) -> bool:
    """Whether the segment's minimum footprint fits the array budget.

    The predicate is mode-independent: the minimum footprint uses no
    memory arrays, so dual- and fixed-mode compilation agree on it.  (An
    ``allow_memory_mode`` parameter used to exist here and was silently
    discarded — it has been removed rather than kept as a decoy knob.)
    """
    return FeasibilityModel(hardware).segment_fits(profiles)


# ---------------------------------------------------------------------- #
# candidate enumeration
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AllocationCandidate:
    """One candidate allocation for a single operator."""

    compute_arrays: int
    memory_arrays: int
    latency_cycles: float

    @property
    def total_arrays(self) -> int:
        """Arrays the candidate consumes."""
        return self.compute_arrays + self.memory_arrays

    def to_allocation(self) -> OperatorAllocation:
        """Convert to an :class:`OperatorAllocation`."""
        return OperatorAllocation(self.compute_arrays, self.memory_arrays)


def candidate_allocations(
    profile: OperatorProfile,
    hardware: DualModeHardwareAbstraction,
    max_arrays: int,
    allow_memory_mode: bool = True,
    max_candidates: int = 24,
) -> List[AllocationCandidate]:
    """Pareto-optimal (arrays, latency) candidates for one operator.

    Compute counts are swept geometrically from the operator's minimum
    footprint up to the budget; memory counts from zero up to the number
    of arrays that fully buffer the working set.  The full (compute,
    memory) grid is scored in one vectorised Eq. 10 evaluation
    (:func:`~repro.cost.latency.operator_latency_cycles_batch`), then
    dominated candidates (more arrays and no lower latency) are
    discarded, keeping the MILP small without losing the optimum at the
    granularity of the sweep.

    An operator none of whose candidates can ever finish (every grid
    point has infinite latency — possible only on degenerate hardware
    with zero usable bandwidth) yields an empty list, the same verdict
    as an operator that does not fit the budget.
    """
    min_compute = max(1, profile.min_compute_arrays(hardware))
    if min_compute > max_arrays:
        return []
    mem_cap = profile.memory_arrays_for_working_set(hardware) if allow_memory_mode else 0
    mem_cap = min(mem_cap, max_arrays - min_compute)

    compute_options = np.asarray(_geometric_range(min_compute, max_arrays), dtype=np.int64)
    memory_options = np.asarray(
        [0] + _geometric_range(1, mem_cap) if mem_cap > 0 else [0], dtype=np.int64
    )

    # The flattened grid enumerates compute-major, memory-minor — the
    # same order the scalar double loop used, which matters because the
    # (total, latency) sort below is stable.
    compute = np.repeat(compute_options, len(memory_options))
    memory = np.tile(memory_options, len(compute_options))
    keep = compute + memory <= max_arrays
    compute, memory = compute[keep], memory[keep]
    latencies = operator_latency_cycles_batch(profile, compute, memory, hardware)
    totals = compute + memory

    # Pareto filter on (total arrays, latency).  np.lexsort is stable,
    # so ties fall back to grid order exactly like the scalar sort did.
    order = np.lexsort((latencies, totals))
    pareto: List[AllocationCandidate] = []
    best_latency = INFEASIBLE_LATENCY
    for index in order:
        latency = float(latencies[index])
        if latency < best_latency - 1e-9:
            pareto.append(
                AllocationCandidate(int(compute[index]), int(memory[index]), latency)
            )
            best_latency = latency
    if len(pareto) > max_candidates:
        # Keep the extremes and thin the middle uniformly.
        indices = np.linspace(0, len(pareto) - 1, max_candidates).round().astype(int)
        pareto = [pareto[i] for i in sorted(set(indices.tolist()))]
    return pareto


def _geometric_range(lo: int, hi: int) -> List[int]:
    """Integers from ``lo`` to ``hi`` with geometric spacing (both included)."""
    if hi < lo:
        return []
    values = {lo, hi}
    value = lo
    while value < hi:
        value = max(value + 1, int(value * 1.5))
        values.add(min(value, hi))
    return sorted(values)


# ---------------------------------------------------------------------- #
# greedy allocator
# ---------------------------------------------------------------------- #
class GreedyAllocator:
    """Marginal-gain heuristic allocator.

    Every operator starts at its minimum compute footprint; remaining
    arrays are handed out one at a time to the operator currently bounding
    the segment (the one with the highest latency), in whichever mode
    (compute duplication or memory buffering) reduces that latency most.
    """

    name = "greedy"

    def __init__(self, allow_memory_mode: bool = True) -> None:
        self.allow_memory_mode = allow_memory_mode

    def allocate(
        self,
        profiles: Mapping[str, OperatorProfile],
        hardware: DualModeHardwareAbstraction,
        pipelined: bool = True,
    ) -> AllocationResult:
        """Allocate the segment; see class docstring for the policy.

        The loop tracks every operator's latency incrementally: only the
        grown operator's entry changes per iteration, so each step costs
        one ``argmax`` and two scalar Eq. 10 evaluations instead of
        re-scoring the whole segment (the scalar reference in
        :mod:`repro.core._reference` did; results are identical).
        """
        if not profiles:
            return AllocationResult({}, 0.0, True, self.name)
        names = list(profiles)
        allocations: Dict[str, OperatorAllocation] = {}
        for name, profile in profiles.items():
            allocations[name] = OperatorAllocation(
                compute_arrays=max(1, profile.min_compute_arrays(hardware)), memory_arrays=0
            )
        used = sum(a.total_arrays for a in allocations.values())
        if used > hardware.num_arrays:
            return infeasible_result()

        def latency_of(name: str, allocation: OperatorAllocation) -> float:
            return operator_latency_cycles(profiles[name], allocation, hardware)

        latencies = np.array(
            [latency_of(name, allocations[name]) for name in names], dtype=np.float64
        )
        remaining = hardware.num_arrays - used
        while remaining > 0:
            # np.argmax keeps the first maximum, matching the scalar
            # ``max(allocations, key=...)`` insertion-order tie-break.
            index = int(np.argmax(latencies))
            bottleneck = names[index]
            current = allocations[bottleneck]
            current_latency = float(latencies[index])
            grow_compute = OperatorAllocation(current.compute_arrays + 1, current.memory_arrays)
            options = [(latency_of(bottleneck, grow_compute), grow_compute)]
            if self.allow_memory_mode:
                grow_memory = OperatorAllocation(current.compute_arrays, current.memory_arrays + 1)
                options.append((latency_of(bottleneck, grow_memory), grow_memory))
            best_latency, best_allocation = min(options, key=lambda item: item[0])
            if best_latency >= current_latency - 1e-9:
                break  # the bottleneck cannot be improved further
            allocations[bottleneck] = best_allocation
            latencies[index] = best_latency
            remaining -= 1

        latency = segment_latency_cycles(profiles, allocations, hardware, pipelined=pipelined)
        return AllocationResult(allocations, latency, True, self.name)


# ---------------------------------------------------------------------- #
# MILP allocator
# ---------------------------------------------------------------------- #
class MILPTimeLimit(Exception):
    """HiGHS stopped at its time limit before proving optimality."""


class MIPAllocator:
    """Mixed-integer-programming allocator (the paper's §4.3.2 solver).

    One binary variable per (operator, candidate allocation) pair selects
    exactly one candidate per operator; a continuous makespan variable is
    lower-bounded by every selected candidate's latency; the total array
    consumption is bounded by the chip budget (Eq. 8).  Minimising the
    makespan yields the Eq. 9 objective.
    """

    name = "milp"

    #: Bound on the per-instance candidate memo (cleared when exceeded).
    CANDIDATE_MEMO_ENTRIES = 4096

    def __init__(
        self,
        allow_memory_mode: bool = True,
        max_candidates_per_operator: int = 24,
        time_limit_seconds: float = 10.0,
    ) -> None:
        self.allow_memory_mode = allow_memory_mode
        self.max_candidates_per_operator = max_candidates_per_operator
        self.time_limit_seconds = time_limit_seconds
        # One operator appears in every DP window that contains it, and
        # its candidate set depends only on (profile, chip) — memoise it
        # per allocator instead of re-enumerating the grid per window.
        self._candidate_memo: Dict[
            Tuple[OperatorProfile, str], List[AllocationCandidate]
        ] = {}

    def _candidates(
        self, profile: OperatorProfile, hardware: DualModeHardwareAbstraction
    ) -> List[AllocationCandidate]:
        key = (profile, hardware.fingerprint())
        cached = self._candidate_memo.get(key)
        if cached is None:
            cached = candidate_allocations(
                profile,
                hardware,
                hardware.num_arrays,
                allow_memory_mode=self.allow_memory_mode,
                max_candidates=self.max_candidates_per_operator,
            )
            if len(self._candidate_memo) >= self.CANDIDATE_MEMO_ENTRIES:
                self._candidate_memo.clear()
            self._candidate_memo[key] = cached
        return cached

    def allocate(
        self,
        profiles: Mapping[str, OperatorProfile],
        hardware: DualModeHardwareAbstraction,
        pipelined: bool = True,
    ) -> AllocationResult:
        """Solve the per-segment allocation MILP."""
        if not profiles:
            return AllocationResult({}, 0.0, True, self.name)
        names = list(profiles)
        candidates: Dict[str, List[AllocationCandidate]] = {}
        for name in names:
            options = self._candidates(profiles[name], hardware)
            if not options:
                return infeasible_result()
            candidates[name] = options

        try:
            solution = self._solve_milp(names, candidates, hardware)
        except MILPTimeLimit:
            result = GreedyAllocator(self.allow_memory_mode).allocate(
                profiles, hardware, pipelined=pipelined
            )
            result.solver = TIMEOUT_SOLVER
            return result
        if solution is None:
            # Fall back to the greedy heuristic (also used when HiGHS
            # declares the model infeasible due to candidate pruning).
            return GreedyAllocator(self.allow_memory_mode).allocate(
                profiles, hardware, pipelined=pipelined
            )
        allocations = {name: candidates[name][k].to_allocation() for name, k in solution.items()}
        latency = segment_latency_cycles(profiles, allocations, hardware, pipelined=pipelined)
        return AllocationResult(allocations, latency, True, self.name)

    def _solve_milp(
        self,
        names: Sequence[str],
        candidates: Mapping[str, List[AllocationCandidate]],
        hardware: DualModeHardwareAbstraction,
    ) -> Optional[Dict[str, int]]:
        """Build and solve the MILP; returns chosen candidate index per op.

        Returns None when the model cannot be built or is not solved to
        optimality.

        Raises:
            MILPTimeLimit: HiGHS stopped at ``time_limit_seconds``.
        """
        offsets: Dict[str, int] = {}
        num_binaries = 0
        for name in names:
            offsets[name] = num_binaries
            num_binaries += len(candidates[name])
        t_index = num_binaries
        num_vars = num_binaries + 1

        # Normalise latencies so the makespan variable is well-scaled.  An
        # operator whose every candidate is infeasible (infinite latency)
        # cannot be modelled; bail out to the greedy fallback instead of
        # tripping on max() over an empty sequence.
        finite_maxima = []
        for name in names:
            finite = [
                c.latency_cycles for c in candidates[name] if math.isfinite(c.latency_cycles)
            ]
            if not finite:
                return None
            finite_maxima.append(max(finite))
        scale = max(max(finite_maxima), 1.0)

        objective = np.zeros(num_vars)
        objective[t_index] = 1.0

        # The constraint matrix is assembled directly in the canonical
        # csc form HiGHS consumes (column-sorted indices, no explicit
        # zeros) instead of building a dense matrix and converting —
        # scipy's per-LinearConstraint sparse conversion dominated
        # cold-compile time.  Row order and values are identical to the
        # original per-row formulation (selection rows 0..n-1, makespan
        # rows n..2n-1, budget row 2n), and zero coefficients are
        # dropped exactly as a dense→csc conversion would drop them, so
        # HiGHS sees a bit-identical problem and returns the identical
        # solution.
        num_ops = len(names)
        budget_row = 2 * num_ops
        indptr = [0]
        indices: List[int] = []
        data: List[float] = []
        for i, name in enumerate(names):
            for candidate in candidates[name]:
                latency = candidate.latency_cycles
                coefficient = latency / scale if math.isfinite(latency) else 1e6
                indices.append(i)
                data.append(1.0)
                if coefficient != 0.0:
                    indices.append(num_ops + i)
                    data.append(coefficient)
                total = float(candidate.total_arrays)
                if total != 0.0:
                    indices.append(budget_row)
                    data.append(total)
                indptr.append(len(indices))
        # Makespan column: -1 in every makespan row.
        indices.extend(range(num_ops, budget_row))
        data.extend([-1.0] * num_ops)
        indptr.append(len(indices))

        row_lb = np.concatenate(
            (np.ones(num_ops), np.full(num_ops + 1, -np.inf))
        )
        row_ub = np.concatenate(
            (np.ones(num_ops), np.zeros(num_ops), [float(hardware.num_arrays)])
        )
        integrality = np.ones(num_vars)
        integrality[t_index] = 0.0
        lower = np.zeros(num_vars)
        upper = np.ones(num_vars)
        upper[t_index] = np.inf

        solution = solve_canonical_milp(
            objective,
            lower,
            upper,
            integrality,
            np.asarray(indptr, dtype=np.int32),
            np.asarray(indices, dtype=np.int32),
            np.asarray(data, dtype=np.float64),
            row_lb,
            row_ub,
            time_limit=self.time_limit_seconds,
            presolve=True,
        )
        if solution is None:
            return None
        status, x = solution
        if status == TIME_LIMIT:
            raise MILPTimeLimit(self.time_limit_seconds)
        if status != OPTIMAL or x is None:
            return None
        chosen: Dict[str, int] = {}
        for name in names:
            block = x[offsets[name] : offsets[name] + len(candidates[name])]
            chosen[name] = int(np.argmax(block))
        return chosen


# ---------------------------------------------------------------------- #
# post-allocation refinement (weight duplication)
# ---------------------------------------------------------------------- #
def refine_with_spare_arrays(
    result: AllocationResult,
    profiles: Mapping[str, OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    pipelined: bool = True,
    allow_memory_mode: bool = True,
    reserve_arrays: int = 0,
) -> AllocationResult:
    """Hand leftover arrays to the bottleneck operator (weight duplication).

    The paper applies weight duplication as a post-allocation optimisation
    "commonly used in CIM compilation" — spare arrays replicate the
    bottleneck operator's weights (or extend its buffers) so the pipelined
    segment latency drops further.  The refinement never worsens latency.

    Args:
        allow_memory_mode: Whether spare arrays may also grow an operator's
            memory-mode buffer (False for fixed-mode baselines).
        reserve_arrays: Arrays to leave untouched — the segmentation pass
            reserves them as boundary buffers for live inter-segment data.
    """
    if not result.feasible or not result.allocations:
        return result
    allocations = dict(result.allocations)
    used = sum(a.total_arrays for a in allocations.values())
    remaining = hardware.num_arrays - used - max(0, reserve_arrays)
    if remaining <= 0:
        return result

    # Incremental bottleneck tracking: only the grown operator's latency
    # changes per hand-out, so each iteration is one argmax plus two
    # scalar Eq. 10 calls (the scalar reference re-scored every operator
    # every iteration; results are identical).
    names = list(allocations)
    latencies = np.array(
        [
            operator_latency_cycles(profiles[name], allocations[name], hardware)
            for name in names
        ],
        dtype=np.float64,
    )
    improved = False
    while remaining > 0:
        index = int(np.argmax(latencies))
        bottleneck = names[index]
        current = allocations[bottleneck]
        current_latency = float(latencies[index])
        grow_compute = OperatorAllocation(current.compute_arrays + 1, current.memory_arrays)
        options = [
            (operator_latency_cycles(profiles[bottleneck], grow_compute, hardware), grow_compute),
        ]
        if allow_memory_mode:
            grow_memory = OperatorAllocation(current.compute_arrays, current.memory_arrays + 1)
            options.append(
                (operator_latency_cycles(profiles[bottleneck], grow_memory, hardware), grow_memory)
            )
        best_latency, best_allocation = min(options, key=lambda item: item[0])
        if best_latency >= current_latency - 1e-9:
            break
        allocations[bottleneck] = best_allocation
        latencies[index] = best_latency
        remaining -= 1
        improved = True
    if not improved:
        return result
    latency = segment_latency_cycles(profiles, allocations, hardware, pipelined=pipelined)
    return AllocationResult(allocations, latency, True, result.solver)


def allocate_segment(
    profiles: Mapping[str, OperatorProfile],
    hardware: DualModeHardwareAbstraction,
    allocator: Optional[object] = None,
    pipelined: bool = True,
    refine: bool = True,
    reserve_arrays: int = 0,
    cache: Optional[object] = None,
    memo: Optional[object] = None,
) -> AllocationResult:
    """Allocate one segment end to end (solver + duplication refinement).

    Args:
        reserve_arrays: Arrays withheld from duplication so the
            segmentation pass can dedicate them to boundary buffering.
            Feasibility is always checked against the full chip.
        cache: Optional shared :class:`~repro.core.cache.AllocationCache`.
            When given, the solve is first looked up (structurally — the
            result is identical to a cold solve) and fresh solves are
            stored back; hits are flagged via ``result.from_cache``.
        memo: Optional per-run :class:`~repro.core.memo.SolveMemo`.
            Probed *before* the shared cache (it is pure process memory,
            never disk); both layers are written on a fresh solve, and a
            shared-cache hit is copied into the memo so later windows of
            the same run skip the cache tiers entirely.
    """
    engine = allocator if allocator is not None else MIPAllocator()
    if not segment_fits(profiles, hardware):
        return infeasible_result()
    allow_memory_mode = getattr(engine, "allow_memory_mode", True)
    cache_key = None
    keyed = memo if memo is not None else cache
    if keyed is not None:
        # Build the (hardware fingerprint x segment signature x options)
        # key once and share it between every lookup and store below.
        cache_key = keyed.make_key(
            profiles,
            hardware,
            engine=getattr(engine, "name", type(engine).__name__),
            pipelined=pipelined,
            refine=refine,
            allow_memory_mode=allow_memory_mode,
            reserve_arrays=reserve_arrays,
        )
    if memo is not None:
        memoised = memo.lookup(cache_key, list(profiles))
        if memoised is not None:
            return memoised
    if cache is not None:
        cached = cache.lookup(cache_key, list(profiles))
        if cached is not None:
            if memo is not None:
                memo.put(cache_key, profiles, cached)
            return cached
    result = engine.allocate(profiles, hardware, pipelined=pipelined)
    if refine and result.feasible:
        result = refine_with_spare_arrays(
            result,
            profiles,
            hardware,
            pipelined=pipelined,
            allow_memory_mode=allow_memory_mode,
            reserve_arrays=reserve_arrays,
        )
    if cache is not None:
        cache.put(cache_key, profiles, result)
    if memo is not None:
        memo.put(cache_key, profiles, result)
    return result
