"""Deterministic low-overhead bridge to the HiGHS MILP solver.

``scipy.optimize.milp`` spends most of a small model's wall time on
per-call Python: input validation, dense→sparse conversion, option
re-validation, and dual/slack extraction the allocator never reads.  At
~700 allocator solves per cold compile that layer dominated compile
time (the HiGHS C++ core itself needs only ~2 ms per segment model).

:func:`solve_canonical_milp` accepts the model in the exact canonical
form HiGHS consumes — a csc matrix with sorted, zero-free columns plus
float64 bound/cost arrays — and hands it to the solver through one of
two tiers:

1. **direct highspy** (scipy's vendored ``_highspy`` core): builds the
   ``HighsLp`` exactly as scipy's internal wrapper does, passes a
   cached ``HighsOptions`` carrying the same option values scipy would
   set (``log_to_console=False``, ``presolve="on"``, the time limit),
   and reads back only the solution vector;
2. **public ``scipy.optimize.milp``** fallback when the vendored
   internals are absent or shaped differently (older/newer scipy).

Both tiers give HiGHS a bit-identical problem, so the returned solution
is the same regardless of tier — the parity suite ratchets compiled
programs against the frozen reference either way.  A fresh ``Highs``
instance is created per solve, exactly like scipy does, so no solver
state leaks between segments.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["FAILED", "OPTIMAL", "TIME_LIMIT", "solve_canonical_milp"]

#: Outcome of one solve: proven optimal, stopped by the time (or
#: iteration) limit, or anything else (infeasible, unbounded, error).
OPTIMAL = "optimal"
TIME_LIMIT = "time-limit"
FAILED = "failed"

#: Resolved lazily: ``(highspy_core_module, options_cache)`` or
#: ``(None, None)`` when the direct tier is unavailable.
_RUNTIME: Optional[Tuple[Optional[object], Optional[Dict]]] = None


def _runtime() -> Tuple[Optional[object], Optional[Dict]]:
    global _RUNTIME
    if _RUNTIME is None:
        # Import on a short-lived thread of its own.  CPython 3.11 keeps
        # frames in fixed-size chunks, and scipy's import makes ~750k
        # calls: at a caller depth where they straddle a chunk boundary
        # each call maps a fresh chunk, so the first solve of a process
        # (a fresh daemon's first compile) cost 50-150 ms more or less
        # depending on how deep its caller happened to be.  A new thread
        # starts the import at the same shallow depth every time.
        loader = threading.Thread(target=_load_runtime, name="repro-highs-import")
        loader.start()
        loader.join()
    return _RUNTIME if _RUNTIME is not None else (None, None)


def _load_runtime() -> None:
    global _RUNTIME
    try:
        import scipy.optimize._highspy._core as core

        # The attributes the direct tier touches; probing them here
        # turns any vendored-layout change into a clean fallback.
        for attribute in (
            "HighsLp",
            "_Highs",
            "HighsOptions",
            "HighsVarType",
            "HighsStatus",
            "HighsModelStatus",
            "MatrixFormat",
            "kHighsInf",
        ):
            getattr(core, attribute)
        _RUNTIME = (core, {})
    except Exception:  # noqa: BLE001 - any layout mismatch → fallback
        _RUNTIME = (None, None)


def _options_object(core, options_cache: Dict, time_limit: float, presolve: bool):
    """Cached ``HighsOptions`` carrying scipy's option values.

    ``passOptions`` copies values out of the object, so one instance per
    distinct (time_limit, presolve) pair is safe to reuse across solves.
    The values mirror what scipy's wrapper sets for
    ``options={"time_limit": ..., "presolve": ...}``: console logging
    off, presolve mapped from bool to ``"on"``/``"off"``.
    """
    key = (float(time_limit), bool(presolve))
    cached = options_cache.get(key)
    if cached is None:
        cached = core.HighsOptions()
        cached.log_to_console = False
        cached.time_limit = float(time_limit)
        cached.presolve = "on" if presolve else "off"
        options_cache[key] = cached
    return cached


def solve_canonical_milp(
    objective: np.ndarray,
    col_lb: np.ndarray,
    col_ub: np.ndarray,
    integrality: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    row_lb: np.ndarray,
    row_ub: np.ndarray,
    time_limit: float,
    presolve: bool = True,
) -> Optional[Tuple[str, Optional[np.ndarray]]]:
    """Solve ``min c.T x  s.t. row_lb <= A x <= row_ub, col_lb <= x <= col_ub``.

    Args:
        objective: Float64 cost vector ``c``.
        col_lb / col_ub: Float64 variable bounds.
        integrality: Per-variable integrality flags (1 integer, 0
            continuous), as scipy's ``milp`` understands them.
        indptr / indices / data: The constraint matrix in canonical csc
            form — column-sorted indices, no explicit zeros (what
            ``scipy.sparse.csc_array`` produces from a dense matrix).
        row_lb / row_ub: Float64 constraint bounds.
        time_limit: HiGHS wall-clock limit in seconds.
        presolve: Whether HiGHS presolve runs (scipy bool semantics).

    Returns:
        ``(status, x)`` where ``status`` is :data:`OPTIMAL` (``x`` is the
        proven-optimal solution), :data:`TIME_LIMIT` (the solver stopped
        at its limit; ``x`` is None — a best-so-far incumbent depends on
        host speed, so it is never returned) or :data:`FAILED`; or
        ``None`` when scipy itself is unavailable.
    """
    core, options_cache = _runtime()
    if core is not None:
        try:
            return _solve_direct(
                core,
                options_cache,
                objective,
                col_lb,
                col_ub,
                integrality,
                indptr,
                indices,
                data,
                row_lb,
                row_ub,
                time_limit,
                presolve,
            )
        except Exception:  # noqa: BLE001 - never let the fast tier fail a solve
            pass
    return _solve_public(
        objective,
        col_lb,
        col_ub,
        integrality,
        indptr,
        indices,
        data,
        row_lb,
        row_ub,
        time_limit,
        presolve,
    )


def _solve_direct(
    core,
    options_cache: Dict,
    objective,
    col_lb,
    col_ub,
    integrality,
    indptr,
    indices,
    data,
    row_lb,
    row_ub,
    time_limit,
    presolve,
) -> Tuple[str, Optional[np.ndarray]]:
    """The highspy tier; mirrors scipy's ``_highs_wrapper`` model fill."""
    lp = core.HighsLp()
    lp.num_col_ = objective.size
    lp.num_row_ = row_ub.size
    lp.a_matrix_.num_col_ = objective.size
    lp.a_matrix_.num_row_ = row_ub.size
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.col_cost_ = objective
    lp.col_lower_ = col_lb
    lp.col_upper_ = col_ub
    lp.row_lower_ = row_lb
    lp.row_upper_ = row_ub
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data
    lp.integrality_ = [core.HighsVarType(int(flag)) for flag in integrality]

    highs = core._Highs()
    if (
        highs.passOptions(
            _options_object(core, options_cache, time_limit, presolve)
        )
        == core.HighsStatus.kError
    ):
        return FAILED, None
    if highs.passModel(lp) == core.HighsStatus.kError:
        return FAILED, None
    if highs.run() == core.HighsStatus.kError:
        return FAILED, None
    # Only a proven-optimal model status counts as solved (scipy's
    # ``success`` for a MIP); a limit stop is reported apart from a
    # proof of infeasibility so the caller can keep it out of caches.
    status = highs.getModelStatus()
    if status == core.HighsModelStatus.kOptimal:
        return OPTIMAL, np.array(highs.getSolution().col_value)
    if status in (core.HighsModelStatus.kTimeLimit, core.HighsModelStatus.kIterationLimit):
        return TIME_LIMIT, None
    return FAILED, None


def _solve_public(
    objective,
    col_lb,
    col_ub,
    integrality,
    indptr,
    indices,
    data,
    row_lb,
    row_ub,
    time_limit,
    presolve,
) -> Optional[Tuple[str, Optional[np.ndarray]]]:
    """The public-API tier; same model through ``scipy.optimize.milp``."""
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csc_array
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        return None
    matrix = csc_array(
        (data, indices, indptr), shape=(row_ub.size, objective.size)
    )
    result = milp(
        c=objective,
        constraints=LinearConstraint(matrix, lb=row_lb, ub=row_ub),
        integrality=integrality,
        bounds=Bounds(lb=col_lb, ub=col_ub),
        options={"time_limit": float(time_limit), "presolve": bool(presolve)},
    )
    if result.success:
        return OPTIMAL, result.x
    # scipy's status 1: "Iteration or time limit reached".
    return (TIME_LIMIT if result.status == 1 else FAILED), None
