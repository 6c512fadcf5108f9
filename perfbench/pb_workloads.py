"""The benchmark's four workloads.

Each workload drives ``repro`` only through its public surface
(``repro.api.Session``, ``repro serve`` / ``repro cache-server``
subprocesses and ``repro.serve.client.Client``), checks every program it
obtains against ``expected.json``, and returns a :class:`Report`.

An untraced run reports the end-to-end metrics; a traced run (a
separate run, ``--trace 1``) installs the wrappers of :mod:`pb_trace`
and reports the per-layer metrics, its own tracing overhead, and the
result of the layer assertions.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import pb_oracle
from pb_probe import HostProbe
from pb_servers import ServerSet
from pb_stats import geomean, median, percentile
from pb_trace import Installed, Layer, Recorder, delta

#: Models of the local compile workloads, one cold pass compiles each once.
COMPILE_MODELS = ("mobilenet", "resnet18", "bert")
#: Models the daemon clients draw their requests from.
SERVE_MIX = ("tiny-cnn", "bert", "mobilenet", "llama2-7b")
#: Daemon warm-up request, deliberately outside the serve mix.
WARMUP_JOB = "tiny-mlp"
#: Model of the remote-tier workload.
REMOTE_MODEL = "bert"

SETUP_PROBES = 3
#: Warm passes after each cold compile of the compile workloads.
WARM_BLOCK = 6
#: Daemons per serve run; each gives one cold-through-daemon sample.
SERVE_DAEMONS = 3
SERVE_CLIENTS = 2
#: Host probes after each server's set-up and each daemon's first-touch
#: compiles (see pb_probe).
HOST_PROBES = 4
#: Bound on one daemon request, so a hung daemon fails the run in time.
CLIENT_TIMEOUT_S = 60.0
#: Requests per client in each half of the traced serve run.
TRACED_REQUESTS = 100
#: Cache servers per remote run; each serves one cold/warm iteration.
REMOTE_SERVERS = 3
#: Fresh-session warm starts after each remote cold compile.
REMOTE_WARM_STARTS = 2

PASSES = ("flatten", "partition", "segment", "allocate", "fixed_fallback", "refine")

PROBE_SCRIPT = """
from repro.api import Session
from repro.core import CompilerOptions
from repro.models.workload import Workload
with Session(solve_jobs={solve_jobs!r}) as session:
    program = session.compile(
        "tiny-cnn", Workload(), options=CompilerOptions(generate_code=False)
    )
print(program.fingerprint())
"""


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
def model_order(seed: int) -> List[str]:
    """The seed's order of the compile workloads' models."""
    return random.Random(f"order:{seed}").sample(COMPILE_MODELS, len(COMPILE_MODELS))


def requests(seed: int, client: int) -> Iterator[str]:
    """The endless model sequence client ``client`` requests under ``seed``."""
    rng = random.Random(f"requests:{seed}:{client}")
    while True:
        yield rng.choice(SERVE_MIX)


# ---------------------------------------------------------------------- #
# bookkeeping
# ---------------------------------------------------------------------- #
@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    env: Dict[str, str]
    work_dir: str


@dataclass
class Report:
    """What one run measured, checked and asserted."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    # Client threads of the serve workload report concurrently.
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self, ok: bool, problem: str = "") -> bool:
        """Count one operation; a failed one is kept with its reason."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(problem or "operation failed")
        return ok

    def run(self, what: str, fn: Callable[[], object]):
        """Call ``fn``; an exception counts as one failed operation.

        A call that returns is counted when its program is checked.
        """
        try:
            return fn()
        except Exception as exc:  # counted and reported, never hidden
            self.attempt(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    def program(self, expected: Dict, name: str, program) -> bool:
        """Count one operation that returned ``program``, checked by the oracle."""
        problem = pb_oracle.mismatch(expected, name, program)
        return self.attempt(problem is None, problem or "")

    def assertion(self, ok: bool, message: str) -> None:
        """A traced-run layer assertion: failing it fails the run."""
        if not ok:
            with self._lock:
                self.problems.append(f"assertion: {message}")

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _timed(fn: Callable[[], object]) -> Tuple[object, float]:
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def _repeat(seconds: float, step: Callable[[int], None], limit: Optional[int] = None) -> None:
    """Call ``step(i)`` until another step would overrun ``seconds``."""
    started = time.perf_counter()
    durations: List[float] = []
    while limit is None or len(durations) < limit:
        began = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - started + median(durations) > seconds:
            break


# ---------------------------------------------------------------------- #
# local compile workloads
# ---------------------------------------------------------------------- #
def _setup_probe(ctx: Context, report: Report, expected: Dict, solve_jobs) -> float:
    """Process start to first compiled program, in a fresh interpreter."""
    script = PROBE_SCRIPT.format(solve_jobs=solve_jobs)
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=ctx.env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - started
    lines = done.stdout.split()
    report.attempt(
        done.returncode == 0
        and bool(lines)
        and lines[-1] == expected["tiny-cnn"]["fingerprint"],
        f"set-up probe failed (exit {done.returncode}): {done.stderr[-500:]}",
    )
    return elapsed


def _compile_pass(session, order, report, expected, programs=None) -> List[float]:
    """Compile each model once; returns each model's compile wall time.

    Programs are checked against the oracle after the pass, off the clock.
    """
    compiled, times = [], []
    for name in order:
        began = time.perf_counter()
        program = report.run(
            f"compile {name}",
            lambda: session.compile(
                pb_oracle.JOBS[name][0],
                pb_oracle.workload(name),
                options=pb_oracle.options(),
            ),
        )
        times.append(time.perf_counter() - began)
        compiled.append((name, program))
    for name, program in compiled:
        if program is not None:
            report.program(expected, name, program)
            if programs is not None:
                programs[name] = program
    return times


def compile_workload(ctx: Context, solve_jobs: Optional[int]) -> Report:
    from repro.api import Session

    report, expected = Report(), pb_oracle.load_expected()
    order = model_order(ctx.seed)
    report.notes.append(f"model order: {' '.join(order)}; solve_jobs={solve_jobs}")
    if ctx.trace:
        # Load HiGHS and every lazy import in this process before timing.
        with Session(solve_jobs=solve_jobs) as session:
            _compile_pass(session, ["tiny-cnn"], report, expected)
        return _traced_compile(report, expected, order, solve_jobs)

    host = HostProbe()
    setup = []
    for _ in range(SETUP_PROBES):
        setup.append(_setup_probe(ctx, report, expected, solve_jobs))
        host.probe()
    with Session(solve_jobs=solve_jobs) as session:
        _compile_pass(session, ["tiny-cnn"], report, expected)

    deadline = time.perf_counter() + ctx.seconds
    cold: Dict[str, List[float]] = {name: [] for name in order}
    warm: List[float] = []
    unit_s: Dict[str, float] = {}
    programs: Dict[str, object] = {}

    # One unit is a cold compile of one model followed by a block of
    # warm passes, so both are sampled across the whole run, with a
    # host probe between any two.  The first round of units runs in the
    # warm session itself (its warm blocks wait until it holds every
    # model); each later round gets a fresh session.  Units stop when
    # the next one would overrun the budget.  A full collection before
    # each timed step gives every step the same collector state:
    # otherwise the ~40 ms full collections the cold compiles' garbage
    # provokes land in a varying share of the warm passes and move
    # their median.
    with Session(solve_jobs=solve_jobs) as warm_session, contextlib.ExitStack() as stack:
        session = warm_session
        for index in itertools.count():
            name = order[index % len(order)]
            if name in unit_s and time.perf_counter() + unit_s[name] > deadline:
                break
            began = time.perf_counter()
            if index and index % len(order) == 0:
                stack.close()
                session = stack.enter_context(Session(solve_jobs=solve_jobs))
            gc.collect()
            cold[name] += _compile_pass(session, [name], report, expected, programs=programs)
            host.probe()
            if index >= len(order) - 1:
                gc.collect()
                warm.extend(
                    sum(_compile_pass(warm_session, order, report, expected))
                    for _ in range(WARM_BLOCK)
                )
                host.probe()
            unit_s[name] = time.perf_counter() - began

    # Host-normalised, see pb_probe; the raw wall times go to the notes.
    raw_cold = sum(median(cold[name]) for name in order)
    report.put("setup_s", median(setup) * host.factor())
    report.put("cold_s", raw_cold * host.factor())
    report.put("warm_ms", median(warm) * host.factor() * 1e3)
    report.put("plan_cycles", geomean([programs[n].end_to_end_cycles for n in order]))
    report.notes.append(
        f"cold compiles {' '.join(f'{n}={len(cold[n])}' for n in order)}, "
        f"{len(warm)} warm passes; raw wall: set-up {median(setup):.3f} s, "
        f"cold {raw_cold:.3f} s, "
        f"warm {median(warm) * 1e3:.2f} ms; {host.summary()}"
    )
    return report


def _traced_compile(report, expected, order, solve_jobs) -> Report:
    from repro.api import Session

    with Session(solve_jobs=solve_jobs) as session:
        (cold_times, _), untraced = _timed(
            lambda: (
                _compile_pass(session, order, report, expected),
                _compile_pass(session, order, report, expected),
            )
        )
    untraced_cold = dict(zip(order, cold_times))

    recorder = Recorder()
    programs: Dict[str, object] = {}
    warm_programs: Dict[str, object] = {}
    with Session(solve_jobs=solve_jobs) as session, Installed(recorder):
        started = time.perf_counter()
        cold_s = sum(_compile_pass(session, order, report, expected, programs=programs))
        _compile_pass(session, order, report, expected, programs=warm_programs)
        traced = time.perf_counter() - started
        pool = session.service.solver_pool_stats()

    layers = recorder.snapshot()
    metrics = _layer_metrics(layers)
    for name in PASSES:
        metrics[f"pass.{name}_s"] = sum(
            p.stats.get("pass_seconds", {}).get(name, 0.0)
            for p in list(programs.values()) + list(warm_programs.values())
        )
    for name in COMPILE_MODELS:
        metrics[f"model.{name}.compile_cold_s"] = untraced_cold.get(name, 0.0)
        metrics[f"model.{name}.solves"] = (
            programs[name].stats.get("allocator_solves", 0) if name in programs else 0
        )
    if pool is not None:
        metrics["pool.dispatched"] = pool["dispatched"]
        metrics["pool.busy_s"] = pool["solve_seconds"]
        metrics["pool.utilisation"] = pool["solve_seconds"] / (pool["workers"] * cold_s)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.untraced_wall_s"] = untraced
    _put_layers(report, metrics)

    expect_positive = ["highs", "milp", "refine", "cost.eq10", "cache.lookup",
                       "cache.put", "pass.segment", "pass.fixed_fallback"]
    expect_positive.append("pool.submit" if solve_jobs else "dp.window")
    for layer in expect_positive:
        report.assertion(layers.get(layer, Layer()).calls > 0, f"{layer} recorded no calls")
    for layer in ("remote.get", "remote.put", "wire.decode"):
        report.assertion(layers.get(layer, Layer()).calls == 0, f"{layer} recorded calls")
    solves = sum(p.stats.get("allocator_solves", 0) for p in programs.values())
    report.assertion(
        metrics["highs.calls"] >= solves > 0,
        f"highs.calls {metrics['highs.calls']} below the {solves} allocator solves",
    )
    report.notes.append(
        f"traced cold+warm {traced:.3f} s vs untraced {untraced:.3f} s; "
        f"pass sum {sum(metrics[f'pass.{n}_s'] for n in PASSES):.3f} s"
    )
    return report


def _layer_metrics(layers: Dict[str, Layer]) -> Dict[str, float]:
    """Per-layer metrics shared by every traced workload."""
    def get(name: str) -> Layer:
        return layers.get(name, Layer())

    highs = get("highs")
    lookups = [get("cache.lookup"), get("memo.lookup")]
    return {
        "highs.calls": highs.calls,
        "highs.busy_s": highs.busy_s,
        "highs.max_call_ms": highs.max_s * 1e3,
        "milp.build_s": get("milp").self_s,
        "refine.calls": get("refine").calls,
        "refine.busy_s": get("refine").busy_s,
        "cost.eq10_calls": get("cost.eq10").calls,
        "dp.windows": get("dp.window").calls + get("pool.submit").calls,
        "dp.self_s": get("pass.segment").self_s + get("pass.fixed_fallback").self_s,
        "cache.lookups": sum(layer.calls for layer in lookups),
        "cache.hits": sum(layer.hits for layer in lookups),
        "cache.lookup_s": sum(layer.self_s for layer in lookups),
        "cache.put_s": get("cache.put").self_s + get("memo.put").self_s,
        "pool.wait_s": get("pool.wait").busy_s,
        "remote.get_calls": get("remote.get").calls,
        "remote.hits": get("remote.get").hits,
        "remote.get_s": get("remote.get").busy_s,
        "remote.put_calls": get("remote.put").calls,
        "remote.put_s": get("remote.put").busy_s,
        "wire.decode_s": get("wire.decode").busy_s,
    }


# ---------------------------------------------------------------------- #
# compile daemon
# ---------------------------------------------------------------------- #
def _metric(text: str, name: str) -> int:
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key == name:
            return int(float(value))
    raise KeyError(f"{name} missing from /metrics")


def _request(client, report, expected, name) -> Optional[Tuple[object, float]]:
    """One daemon compile, checked; returns (result, latency) or None."""
    job = pb_oracle.compile_job(name)
    began = time.perf_counter()
    result = report.run(f"request {name}", lambda: client.compile(job))
    latency = time.perf_counter() - began
    if result is None:
        return None
    if result.verify():
        report.program(expected, name, result.program)
    else:
        report.attempt(False, f"{name}: daemon fingerprint does not verify")
    return result, latency


def _cold_through(url, report, expected, programs) -> float:
    """First touch of every mix model on a fresh daemon, one client.

    Returns the summed request latencies (checks run between requests).
    """
    from repro.serve.client import Client

    total = 0.0
    with Client(url, timeout=CLIENT_TIMEOUT_S) as client:
        for name in SERVE_MIX:
            outcome = _request(client, report, expected, name)
            if outcome is not None:
                programs[name] = outcome[0].program
                total += outcome[1]
    return total


def _closed_loop(url, ctx, report, expected, per_client=None, seconds=None):
    """``SERVE_CLIENTS`` closed-loop clients; returns (samples, wall)."""
    from repro.serve.client import Client

    samples: List[Tuple[float, float]] = []  # (latency, server wall)
    lock = threading.Lock()
    deadline = time.perf_counter() + (seconds or 0.0)

    def client_loop(index: int) -> None:
        names = requests(ctx.seed, index)
        with Client(url, timeout=CLIENT_TIMEOUT_S) as client:
            sent = 0
            while (
                sent < per_client if per_client is not None
                else time.perf_counter() < deadline
            ):
                sent += 1
                outcome = _request(client, report, expected, next(names))
                if outcome is not None:
                    with lock:
                        samples.append((outcome[1], outcome[0].wall_seconds))

    threads = [
        # Daemon threads, so a terminated run does not wait for them.
        threading.Thread(
            target=client_loop, args=(i,), name=f"perfbench-client-{i}", daemon=True
        )
        for i in range(SERVE_CLIENTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, time.perf_counter() - started


def serve_workload(ctx: Context) -> Report:
    from repro.serve.client import Client

    report, expected = Report(), pb_oracle.load_expected()
    host = HostProbe()
    with ServerSet(ctx.env, ctx.work_dir) as servers:
        # Warm-up outside the mix: loads HiGHS and lazy imports in each
        # daemon, so the cold unit times compiles, not process start-up.
        daemons, setup = [], []
        for _ in range(1 if ctx.trace else SERVE_DAEMONS):
            daemon = servers.spawn("serve", ["serve", "--workers", str(SERVE_CLIENTS)])
            with Client(daemon.url, timeout=CLIENT_TIMEOUT_S) as client:
                outcome = _request(client, report, expected, WARMUP_JOB)
            daemons.append(daemon)
            setup.append(daemon.ready_s + (outcome[1] if outcome else 0.0))
            for _ in range(HOST_PROBES):
                host.probe()
        programs: Dict[str, object] = {}
        cold = []
        timed_from = time.perf_counter()
        for daemon in daemons:
            cold.append(_cold_through(daemon.url, report, expected, programs))
            for _ in range(HOST_PROBES):
                host.probe()
        url = daemons[-1].url
        if ctx.trace:
            _, untraced = _closed_loop(url, ctx, report, expected, per_client=TRACED_REQUESTS)
        recorder = Recorder()
        with Installed(recorder) if ctx.trace else contextlib.nullcontext():
            with Client(url, timeout=CLIENT_TIMEOUT_S) as probe:
                before = probe.metrics_text()
            if ctx.trace:
                samples, wall = _closed_loop(
                    url, ctx, report, expected, per_client=TRACED_REQUESTS
                )
            else:
                elapsed = time.perf_counter() - timed_from
                warm_budget = max(1.0, ctx.seconds - elapsed)
                samples, wall = _closed_loop(url, ctx, report, expected, seconds=warm_budget)
            with Client(url, timeout=CLIENT_TIMEOUT_S) as probe:
                after = probe.metrics_text()
        unclean = servers.drain_all()
    report.attempt(unclean == 0, f"{unclean} daemon(s) did not drain cleanly")

    latencies = [latency for latency, _ in samples]
    executed = _metric(after, "serve_compiles_executed") - _metric(before, "serve_compiles_executed")
    solves = _metric(after, "serve_solves_executed") - _metric(before, "serve_solves_executed")
    p95 = percentile(latencies, 95)
    report.notes.append(
        f"cold through daemon {_fmt(cold)} s; {len(samples)} warm requests, "
        f"p50 {median(latencies) * 1e3:.2f} ms, "
        f"p95 {'n/a' if p95 is None else f'{p95 * 1e3:.2f} ms'}, "
        f"{len(samples) / wall:.1f} req/s, {executed} compiles, {solves} solves; "
        f"raw set-up {median(setup):.3f} s; {host.summary()}"
    )
    if not ctx.trace:
        report.put("setup_s", median(setup) * host.factor())
        report.put("cold_s", median(cold) * host.factor())
        report.put("warm_ms", median(latencies) * 1e3)
        report.put(
            "plan_cycles", geomean([programs[n].end_to_end_cycles for n in SERVE_MIX])
        )
        return report

    layers = recorder.snapshot()
    metrics = _layer_metrics(layers)
    server_s = sum(server for _, server in samples)
    decode_s = layers.get("wire.decode", Layer()).busy_s
    metrics.update({
        "serve.server_s": server_s,
        "serve.transport_s": sum(latencies) - server_s - decode_s,
        "serve.compiles_executed": executed,
        "serve.solves_executed": solves,
        "serve.p50_ms": median(latencies) * 1e3,
        "serve.p95_ms": 0.0 if p95 is None else p95 * 1e3,
        "serve.rps": len(samples) / wall,
        "serve.samples": len(samples),
        "trace.overhead_s": wall - untraced,
        "trace.untraced_wall_s": untraced,
    })
    _put_layers(report, metrics)
    report.assertion(metrics["highs.calls"] == 0, "HiGHS ran in the client process")
    report.assertion(solves == 0, f"the daemon solved {solves} windows on warm requests")
    report.assertion(
        layers.get("wire.decode", Layer()).calls == len(samples) > 0,
        "wire.decode did not record one call per response",
    )
    return report


# ---------------------------------------------------------------------- #
# remote cache tier
# ---------------------------------------------------------------------- #
def _remote_iteration(url, report, expected, recorder=None) -> Dict:
    """Cold write-through, fresh-session warm starts, local base.

    Returns the wall times per step (``cold``, ``warm``, ``local``), the
    program, and with a recorder the per-layer deltas of each step.
    """
    from repro.api import Session

    out: Dict = {"cold": [], "warm": [], "local": [], "layers": {}}
    mark = recorder.snapshot() if recorder else {}

    def step(name: str, remote_cache) -> None:
        nonlocal mark
        programs: Dict[str, object] = {}
        with Session(remote_cache=remote_cache) as session:
            (elapsed,) = _compile_pass(
                session, [REMOTE_MODEL], report, expected, programs=programs
            )
        out[name].append(elapsed)
        program = out["program"] = programs.get(REMOTE_MODEL)
        if name == "warm" and program is not None:
            solves = program.stats.get("allocator_solves")
            report.attempt(solves == 0, f"remote warm start solved {solves} windows")
        if recorder:
            now = recorder.snapshot()
            out["layers"][name] = delta(now, mark)
            mark = now

    step("cold", url)
    for _ in range(REMOTE_WARM_STARTS):
        step("warm", url)
    step("local", None)
    return out


def remote_workload(ctx: Context) -> Report:
    from repro.api import Session

    report, expected = Report(), pb_oracle.load_expected()
    with Session() as session:  # HiGHS and lazy imports, untimed
        _compile_pass(session, ["tiny-cnn"], report, expected)
    iterations: List[Dict] = []
    host = HostProbe()
    with ServerSet(ctx.env, ctx.work_dir) as servers:
        stores = []
        for i in range(2 if ctx.trace else REMOTE_SERVERS):
            store_dir = os.path.join(ctx.work_dir, f"store-{i}")
            stores.append(
                servers.spawn("cache-server", ["cache-server", "--cache-dir", store_dir])
            )
            for _ in range(HOST_PROBES):
                host.probe()
        if ctx.trace:
            # The untraced iteration gives the timings, the traced one the layers.
            untraced_run, untraced = _timed(
                lambda: _remote_iteration(stores[0].url, report, expected)
            )
            iterations.append(untraced_run)
            recorder = Recorder()
            with Installed(recorder):
                traced_run, traced = _timed(
                    lambda: _remote_iteration(stores[1].url, report, expected, recorder)
                )
        else:
            _repeat(
                ctx.seconds,
                lambda i: iterations.append(
                    _remote_iteration(stores[i].url, report, expected)
                ),
                limit=len(stores),
            )
        unclean = servers.drain_all()
    report.attempt(unclean == 0, f"{unclean} cache server(s) did not drain cleanly")
    cold, warm, local = (
        [t for it in iterations for t in it[name]] for name in ("cold", "warm", "local")
    )
    report.notes.append(
        f"remote cold {_fmt(cold)} s, remote warm {_fmt(warm)} s, local cold {_fmt(local)} s; "
        f"raw set-up {median([s.ready_s for s in stores]):.3f} s; {host.summary()}"
    )
    if not ctx.trace:
        report.put("setup_s", median([s.ready_s for s in stores]) * host.factor())
        report.put("cold_s", median(cold))
        report.put("warm_ms", median(warm) * 1e3)
        program = next(it["program"] for it in iterations if it["program"])
        report.put("plan_cycles", program.end_to_end_cycles)
        return report

    metrics = _layer_metrics(recorder.snapshot())
    metrics["remote.local_cold_s"] = median(local)
    metrics["remote.warm_vs_local_cold"] = median(warm) / median(local)
    metrics[f"model.{REMOTE_MODEL}.compile_cold_s"] = median(local)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.untraced_wall_s"] = untraced
    _put_layers(report, metrics)
    phases = traced_run["layers"]

    def get(phase: str, name: str) -> Layer:
        return phases[phase].get(name, Layer())

    report.assertion(get("cold", "highs").calls > 0, "no HiGHS calls in the remote cold phase")
    report.assertion(get("cold", "remote.put").calls > 0, "no write-through PUTs")
    report.assertion(get("cold", "remote.get").calls > 0, "no remote GETs on the cold phase")
    report.assertion(get("warm", "highs").calls == 0, "HiGHS ran during remote warm starts")
    report.assertion(get("warm", "remote.get").hits > 0, "remote warm starts had no GET hits")
    return report


# ---------------------------------------------------------------------- #
# reporting
# ---------------------------------------------------------------------- #
#: End-to-end metric -> unit; an untraced run reports exactly these.
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_ms": "ms",
    "plan_cycles": "cycles",
}

#: Per-layer metric -> unit; a traced run reports every one (0 where the
#: workload does not exercise the layer).
PER_LAYER_UNITS: Dict[str, str] = {
    "highs.calls": "count",
    "highs.busy_s": "s",
    "highs.max_call_ms": "ms",
    "milp.build_s": "s",
    "refine.calls": "count",
    "refine.busy_s": "s",
    "cost.eq10_calls": "count",
    "dp.windows": "count",
    "dp.self_s": "s",
    "cache.lookups": "count",
    "cache.hits": "count",
    "cache.lookup_s": "s",
    "cache.put_s": "s",
    **{f"pass.{name}_s": "s" for name in PASSES},
    "pool.dispatched": "count",
    "pool.busy_s": "s",
    "pool.utilisation": "ratio",
    "pool.wait_s": "s",
    "serve.server_s": "s",
    "wire.decode_s": "s",
    "serve.transport_s": "s",
    "serve.compiles_executed": "count",
    "serve.solves_executed": "count",
    "serve.p50_ms": "ms",
    "serve.p95_ms": "ms",
    "serve.rps": "1/s",
    "serve.samples": "count",
    "remote.get_calls": "count",
    "remote.hits": "count",
    "remote.get_s": "s",
    "remote.put_calls": "count",
    "remote.put_s": "s",
    "remote.warm_vs_local_cold": "ratio",
    "remote.local_cold_s": "s",
    **{
        f"model.{name}.{suffix}": unit
        for name in COMPILE_MODELS
        for suffix, unit in (("compile_cold_s", "s"), ("solves", "count"))
    },
    "trace.overhead_s": "s",
    "trace.untraced_wall_s": "s",
}


def _put_layers(report: Report, metrics: Dict[str, float]) -> None:
    unknown = set(metrics) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"per-layer metrics without a unit: {sorted(unknown)}")
    for name in PER_LAYER_UNITS:
        report.put(name, metrics.get(name, 0.0))


def _fmt(values: Sequence[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


WORKLOADS: Dict[str, Callable[[Context], Report]] = {
    "compile_cold": lambda ctx: compile_workload(ctx, None),
    "compile_pool": lambda ctx: compile_workload(ctx, 2),
    "serve_warm": serve_workload,
    "remote_tier": remote_workload,
}
