#!/usr/bin/env python3
"""CI gate for the serving layer (``repro serve`` + ``repro cache-server``).

Boots both servers as real subprocesses on ephemeral ports (discovered
via ``--port-file``) and asserts the serving contract end to end:

1. N concurrent clients submitting the *identical* job are coalesced
   into exactly one compile — ``/metrics`` reports
   ``serve_compiles_executed 1`` and N-1 coalesced hits, and the number
   of allocator solves the daemon performed matches one local cold
   compile's;
2. every remote result is fingerprint-bit-identical to a local
   ``Session.compile`` of the same job;
3. a *fresh process* with an empty local cache directory, mounting only
   the networked cache tier, warm-compiles the same model with zero
   allocator solves and the same fingerprint;
4. the remote tier is cheaper than recompiling, measured in this run
   so the gate holds on any host: the median fresh-session warm start
   of bert on ``dynaplasia`` from the cache server takes at most
   ``MAX_WARM_VS_LOCAL_COLD`` of a local cold compile, with exact
   counts — the cold compile writes one PUT per solve, and each warm
   start issues one GET per distinct window, every one a hit;
5. SIGTERM drains both servers cleanly: they run admitted work to
   completion, print their "drained cleanly" line and exit 0.

It also prints the daemon's warm-request p50 (reported, not gated).

Run from the repository root::

    PYTHONPATH=src python scripts/check_serve.py
"""

from __future__ import annotations

import atexit
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

CLIENTS = 4
MODEL = "tiny-mlp"
HARDWARE = "small-test-chip"

#: The remote-tier gate: bert reuses its encoder block, so a cold compile
#: solves few windows (54) and a warm start makes one GET for each.
RATIO_MODEL = "bert"
RATIO_HARDWARE = "dynaplasia"
RATIO_RUNS = 3
MAX_WARM_VS_LOCAL_COLD = 0.5

#: Warm requests timed against the daemon for the printed p50.
WARM_REQUESTS = 20

_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = "src" + os.pathsep + _ENV.get("PYTHONPATH", "")

WARM_PROCESS_SCRIPT = """
import sys
from repro.api import Session
from repro.core import CompilerOptions

remote_url, cache_dir = sys.argv[1], sys.argv[2]
with Session(hardware="%(hardware)s", cache_dir=cache_dir,
             remote_cache=remote_url) as session:
    program = session.compile(
        "%(model)s", options=CompilerOptions(generate_code=False)
    )
    assert program.stats["allocator_solves"] == 0, (
        "empty-cache client re-solved despite the remote tier: "
        f"{program.stats['allocator_solves']} solves"
    )
    assert session.cache_stats.remote_hits > 0, session.cache_stats
print(program.fingerprint())
""" % {"hardware": HARDWARE, "model": MODEL}


def _kill_if_running(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def start_server(args, port_file):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli"] + args + ["--port-file", port_file],
        env=_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # A failed check exits before the drain; leave no server behind.
    atexit.register(_kill_if_running, proc)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out = proc.stdout.read() if proc.stdout else ""
            raise AssertionError(f"server {args[0]} died on startup:\n{out}")
        if os.path.exists(port_file) and os.path.getsize(port_file) > 0:
            with open(port_file, "r", encoding="utf-8") as handle:
                return proc, f"http://127.0.0.1:{int(handle.read().strip())}"
        time.sleep(0.05)
    raise AssertionError(f"server {args[0]} never published its port")


def drain(proc, role):
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0, f"{role} exited {proc.returncode}:\n{out}"
    assert "drained cleanly" in out, f"{role} did not report a drain:\n{out}"
    print(f"{role}: SIGTERM drained cleanly, exit 0")


def metric(text, name):
    match = re.search(rf"^{re.escape(name)} (\d+)$", text, re.MULTILINE)
    assert match, f"metric {name} missing from /metrics exposition:\n{text}"
    return int(match.group(1))


def timed_compile(session, model):
    from repro.core import CompilerOptions

    started = time.perf_counter()
    program = session.compile(model, options=CompilerOptions(generate_code=False))
    return program, time.perf_counter() - started


def check_remote_tier_ratio(cache_url):
    """Gate 4: a remote warm start beats a local cold compile, same run."""
    from repro.api import Session

    local_cold = []
    for _ in range(RATIO_RUNS):
        with Session(hardware=RATIO_HARDWARE) as session:
            local, seconds = timed_compile(session, RATIO_MODEL)
        local_cold.append(seconds)
    solves = local.stats["allocator_solves"]

    with Session(hardware=RATIO_HARDWARE, remote_cache=cache_url) as session:
        cold, _ = timed_compile(session, RATIO_MODEL)
    stats = session.service.remote_cache.stats
    assert cold.stats["allocator_solves"] == solves, cold.stats
    assert (stats.stores, stats.dropped, stats.errors) == (solves, 0, 0), (
        f"cold write-through: expected {solves} PUTs stored, none dropped "
        f"or failed; got {stats.to_dict()}"
    )

    warm_starts = []
    for _ in range(RATIO_RUNS):
        with Session(hardware=RATIO_HARDWARE, remote_cache=cache_url) as session:
            warm, seconds = timed_compile(session, RATIO_MODEL)
        warm_starts.append(seconds)
        stats = session.service.remote_cache.stats
        windows = session.cache_stats.remote_hits
        assert warm.stats["allocator_solves"] == 0, warm.stats
        assert warm.fingerprint() == local.fingerprint(), "remote warm != local"
        assert stats.hits + stats.misses == windows == solves, (
            f"warm start: expected {solves} GETs (one per distinct window, "
            f"all hits); got {stats.to_dict()} over {windows} windows"
        )

    ratio = statistics.median(warm_starts) / statistics.median(local_cold)
    print(
        f"remote tier: {RATIO_MODEL} warm start {statistics.median(warm_starts) * 1e3:.1f} ms "
        f"vs local cold {statistics.median(local_cold) * 1e3:.1f} ms "
        f"(ratio {ratio:.3f}, gate <= {MAX_WARM_VS_LOCAL_COLD}); "
        f"{solves} PUTs, {solves} GETs per warm start"
    )
    assert ratio <= MAX_WARM_VS_LOCAL_COLD, (
        f"remote warm start is {ratio:.2f}x a local cold compile "
        f"(gate {MAX_WARM_VS_LOCAL_COLD}x): the remote tier does not pay for itself"
    )


def main() -> int:
    from repro.api import Session
    from repro.core import CompilerOptions
    from repro.serve import Client

    work = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    cache_proc, cache_url = start_server(
        ["cache-server", "--cache-dir", os.path.join(work, "shared-cache")],
        os.path.join(work, "cs.port"),
    )
    serve_proc, serve_url = start_server(
        [
            "serve",
            "--cache-dir", os.path.join(work, "daemon-cache"),
            "--remote-cache", cache_url,
            "--workers", "2",
        ],
        os.path.join(work, "serve.port"),
    )
    print(f"cache server at {cache_url}, compile daemon at {serve_url}")

    with Client(serve_url) as probe:
        assert probe.healthy(wait_seconds=10), "daemon never became healthy"

    # 1. N truly concurrent identical requests -> exactly one compile.
    barrier = threading.Barrier(CLIENTS)
    results, errors = [], []

    def one_client():
        try:
            with Client(serve_url) as client:
                barrier.wait(timeout=30)
                results.append(client.compile(MODEL, hardware=HARDWARE))
        except Exception as exc:  # surfaced below, not swallowed
            errors.append(exc)

    threads = [threading.Thread(target=one_client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, f"concurrent clients failed: {errors!r}"
    assert len(results) == CLIENTS

    fingerprints = {result.fingerprint for result in results}
    assert len(fingerprints) == 1, f"divergent fingerprints: {fingerprints}"
    assert all(result.verify() for result in results)
    coalesced = sum(1 for result in results if result.coalesced)
    assert coalesced == CLIENTS - 1, (
        f"expected {CLIENTS - 1} coalesced followers, saw {coalesced}"
    )

    # 2. Bit-identical to a local compile; the daemon solved exactly once.
    local = Session(hardware=HARDWARE).compile(
        MODEL, options=CompilerOptions(generate_code=False)
    )
    assert local.fingerprint() == fingerprints.pop(), "remote != local compile"

    with Client(serve_url) as client:
        metrics = client.metrics_text()
    assert metric(metrics, "serve_compiles_executed") == 1, metrics
    assert metric(metrics, "serve_coalesced_hits") == CLIENTS - 1, metrics
    solves = metric(metrics, "serve_solves_executed")
    assert solves == local.stats["allocator_solves"] > 0, (
        f"daemon solves {solves} != local cold compile's "
        f"{local.stats['allocator_solves']}"
    )
    print(
        f"coalescing ok: {CLIENTS} clients, 1 compile, "
        f"{coalesced} coalesced, {solves} solves"
    )

    # 3. Fresh process, empty local cache, remote tier only: 0 solves.
    warm = subprocess.run(
        [sys.executable, "-", cache_url, os.path.join(work, "fresh-cache")],
        input=WARM_PROCESS_SCRIPT,
        env=_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert warm.returncode == 0, (
        f"warm-process client failed:\n{warm.stdout}\n{warm.stderr}"
    )
    warm_fingerprint = warm.stdout.strip().splitlines()[-1]
    assert warm_fingerprint == local.fingerprint(), (
        f"warm fingerprint {warm_fingerprint} != local {local.fingerprint()}"
    )
    print("remote warm start ok: 0 solves, fingerprint bit-identical")

    # 4. Remote warm start vs local cold compile, measured in this run.
    check_remote_tier_ratio(cache_url)

    with Client(serve_url) as client:
        latencies = []
        for _ in range(WARM_REQUESTS):
            started = time.perf_counter()
            client.compile(MODEL, hardware=HARDWARE)
            latencies.append(time.perf_counter() - started)
    print(f"daemon warm p50: {statistics.median(latencies) * 1e3:.1f} ms")

    # 5. Graceful SIGTERM drain, exit 0, on both servers.
    drain(serve_proc, "compile daemon")
    drain(cache_proc, "cache server")
    print("serve smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
