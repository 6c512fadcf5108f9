"""Tests for the serving tier: wire format, coalescing, daemon, remote cache.

Covers the ISSUE-9 acceptance surface: fingerprint-bit-identical wire
round trips, single-flight coalescing (exactly one allocator-solving
compile for N concurrent identical requests), the networked cache tier
(self-verifying entries: poisoned or version-skewed server data is a
miss, never a wrong program), `Session(remote_cache=...)` zero-solve
warm compiles, the `Session` context manager, and the batch JSON report.

The transport tests pin one socket write per response with TCP_NODELAY
at both ends; the write-behind tests pin when queued remote writes
land, what is dropped and counted, and that `close()` is bounded and
not terminal.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import struct
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import Session
from repro.core.cache import AllocationCache, AllocationCacheKey, CacheEntry
from repro.core.compiler import CompilerOptions
from repro.core.store import DiskCacheStore, FORMAT_VERSION, key_digest
from repro.models.workload import Phase, Workload
from repro.serve import (
    CacheServer,
    Client,
    CoalesceTimeout,
    CompileDaemon,
    CompileRequestError,
    RemoteCacheStore,
    SingleFlight,
    WireFormatError,
    job_from_wire,
    job_to_wire,
    program_from_wire,
    program_to_wire,
    request_fingerprint,
)
from repro.serve import remote as remote_module
from repro.serve.remote import MAX_ENTRY_BYTES
from repro.serve.wire import WIRE_VERSION, check_version
from repro.service import CompileJob


def _synthetic_key(**overrides) -> AllocationCacheKey:
    fields = dict(
        hardware="feedfacefeedface",
        segment=(("linear", 1024, 32, 32, 1024, 1024, 32, 0, True, 1, 32, 32),),
        engine="milp",
        pipelined=True,
        refine=True,
        allow_memory_mode=True,
        reserve_arrays=0,
    )
    fields.update(overrides)
    return AllocationCacheKey(**fields)


def _entry(allocations=((2, 1), (3, 0)), latency=123.5) -> CacheEntry:
    return CacheEntry(
        allocations=tuple(tuple(pair) for pair in allocations),
        latency_cycles=latency,
        feasible=True,
        solver="milp",
    )


@pytest.fixture()
def cache_server(tmp_path):
    server = CacheServer(tmp_path / "served")
    server.start_background()
    yield server
    server.shutdown()


# ---------------------------------------------------------------------- #
# wire format
# ---------------------------------------------------------------------- #
class TestWireFormat:
    def test_job_roundtrip_by_name(self):
        job = CompileJob(
            "tiny-mlp",
            workload=Workload(batch_size=4, seq_len=32, phase=Phase.PREFILL),
            hardware="small-test-chip",
            options=CompilerOptions(generate_code=False),
            label="probe",
        )
        back = job_from_wire(job_to_wire(job))
        assert back.model == "tiny-mlp"
        assert back.workload == job.workload
        assert back.hardware == "small-test-chip"
        assert back.options == job.options
        assert back.label == "probe"

    def test_graph_job_travels_by_serialization(self, tiny_mlp_graph):
        job = CompileJob(tiny_mlp_graph)
        back = job_from_wire(job_to_wire(job))
        assert not isinstance(back.model, str)
        assert back.model.name == tiny_mlp_graph.name
        assert [op.name for op in back.model.operators] == [
            op.name for op in tiny_mlp_graph.operators
        ]

    def test_program_roundtrip_is_fingerprint_bit_identical(self, small_chip, tiny_mlp_graph):
        from repro.core.compiler import CMSwitchCompiler

        for generate_code in (False, True):
            program = CMSwitchCompiler(
                small_chip, CompilerOptions(generate_code=generate_code)
            ).compile(tiny_mlp_graph)
            back = program_from_wire(program_to_wire(program))
            assert back.fingerprint() == program.fingerprint()
            assert back.end_to_end_cycles == program.end_to_end_cycles
            assert back.num_segments == program.num_segments

    def test_wire_survives_json_serialisation(self, small_chip, tiny_mlp_graph):
        """The payload must survive an actual JSON encode/decode (floats!)."""
        from repro.core.compiler import CMSwitchCompiler

        program = CMSwitchCompiler(
            small_chip, CompilerOptions(generate_code=False)
        ).compile(tiny_mlp_graph)
        payload = json.loads(json.dumps(program_to_wire(program)))
        assert program_from_wire(payload).fingerprint() == program.fingerprint()

    def test_unknown_option_field_rejected(self):
        wire = job_to_wire(CompileJob("tiny-mlp", options=CompilerOptions()))
        wire["options"]["no_such_option"] = True
        with pytest.raises(WireFormatError):
            job_from_wire(wire)

    def test_newer_wire_version_rejected(self):
        with pytest.raises(WireFormatError):
            check_version({"wire_version": WIRE_VERSION + 1}, "test document")
        with pytest.raises(WireFormatError):
            check_version({}, "test document")

    def test_model_and_graph_are_mutually_exclusive(self):
        wire = job_to_wire(CompileJob("tiny-mlp"))
        wire["graph_json"] = "{}"
        with pytest.raises(WireFormatError):
            job_from_wire(wire)


class TestRequestFingerprint:
    def test_deterministic(self):
        job = CompileJob("tiny-mlp", workload=Workload(batch_size=2))
        assert request_fingerprint(job) == request_fingerprint(job)

    def test_sensitive_to_compile_determining_inputs(self):
        base = CompileJob("tiny-mlp")
        fp = request_fingerprint(base)
        assert request_fingerprint(CompileJob("tiny-cnn")) != fp
        assert (
            request_fingerprint(CompileJob("tiny-mlp", workload=Workload(batch_size=8)))
            != fp
        )
        assert (
            request_fingerprint(CompileJob("tiny-mlp", hardware="small-test-chip")) != fp
        )
        assert (
            request_fingerprint(
                CompileJob("tiny-mlp", options=CompilerOptions(pipelined=False))
            )
            != fp
        )

    def test_label_does_not_change_identity(self):
        assert request_fingerprint(
            CompileJob("tiny-mlp", label="a")
        ) == request_fingerprint(CompileJob("tiny-mlp", label="b"))

    def test_default_options_fold(self):
        """options=None coalesces with the daemon's explicit batch default."""
        default = CompilerOptions(generate_code=False)
        assert request_fingerprint(
            CompileJob("tiny-mlp"), default_options=default
        ) == request_fingerprint(CompileJob("tiny-mlp", options=default))
        # ... but not with a *different* explicit choice.
        assert request_fingerprint(
            CompileJob("tiny-mlp"), default_options=default
        ) != request_fingerprint(
            CompileJob("tiny-mlp", options=CompilerOptions(generate_code=True))
        )


# ---------------------------------------------------------------------- #
# single-flight coalescing
# ---------------------------------------------------------------------- #
class TestSingleFlight:
    def test_concurrent_callers_share_one_computation(self):
        flights = SingleFlight()
        calls = []
        gate = threading.Event()
        barrier = threading.Barrier(4)
        outcomes = []

        def work():
            calls.append(1)
            gate.wait(5)
            return "result"

        def run():
            barrier.wait(5)
            value, coalesced = flights.do("key", work, timeout=10)
            outcomes.append((value, coalesced))

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        # Let every follower join the flight before the leader finishes.
        import time

        deadline = time.monotonic() + 10
        while flights.coalesced < 3 and time.monotonic() < deadline:
            time.sleep(0.001)
        gate.set()
        for thread in threads:
            thread.join(10)
        assert len(calls) == 1
        assert [value for value, _ in outcomes] == ["result"] * 4
        assert sorted(coalesced for _, coalesced in outcomes) == [False, True, True, True]
        assert flights.started == 1 and flights.coalesced == 3
        assert len(flights) == 0

    def test_leader_failure_propagates_and_is_not_replayed(self):
        flights = SingleFlight()
        boom = RuntimeError("solver exploded")

        flight, leader = flights.begin("key")
        assert leader
        follower_error = []

        def follow():
            try:
                flights.wait(flight, timeout=5)
            except RuntimeError as exc:
                follower_error.append(exc)

        thread = threading.Thread(target=follow)
        thread.start()
        flights.finish(flight, error=boom)
        thread.join(5)
        assert follower_error == [boom]
        # The failed flight is retired: the next caller leads afresh.
        _, leader_again = flights.begin("key")
        assert leader_again

    def test_wait_timeout(self):
        flights = SingleFlight()
        flight, _ = flights.begin("slow")
        with pytest.raises(CoalesceTimeout):
            flights.wait(flight, timeout=0.01)
        # The flight is still in the air for everyone else.
        _, leader = flights.begin("slow")
        assert not leader
        flights.finish(flight, value="done")


# ---------------------------------------------------------------------- #
# the networked cache tier
# ---------------------------------------------------------------------- #
class TestRemoteCacheStore:
    def test_roundtrip_through_server(self, cache_server):
        remote = RemoteCacheStore(cache_server.url)
        key, entry = _synthetic_key(), _entry()
        assert remote.get(key) is None
        remote.put(key, entry)
        remote.close()  # flushes the write-behind queue; the store stays usable
        assert remote.get(key) == entry
        assert remote.contains(key)
        assert not remote.contains(_synthetic_key(reserve_arrays=9))
        assert remote.stats.hits == 1 and remote.stats.misses == 1
        remote.close()

    def test_dead_server_is_a_miss_not_an_error(self):
        remote = RemoteCacheStore("http://127.0.0.1:9", timeout=0.2)
        key = _synthetic_key()
        assert remote.get(key) is None
        remote.put(key, _entry())  # must not raise either
        assert remote.stats.errors >= 1
        remote.close()

    def test_poisoned_entry_is_rejected_client_side(self, cache_server):
        """A tampered server can cause misses, never wrong allocations."""
        remote = RemoteCacheStore(cache_server.url)
        key, entry = _synthetic_key(), _entry()
        remote.put(key, entry)
        remote.close()
        digest = key_digest(key)
        path = cache_server.store.root / digest[:2] / f"{digest}.json"
        payload = json.loads(path.read_text())
        payload["entry"]["allocations"] = [[9, 9]]  # poisoned allocations...
        payload["key"]["engine"] = "greedy"  # ...under a now-mismatched key
        path.write_text(json.dumps(payload))
        assert remote.get(key) is None
        assert remote.stats.corrupt_entries == 1
        remote.close()

    def test_version_skewed_entry_is_rejected_client_side(self, cache_server):
        remote = RemoteCacheStore(cache_server.url)
        key = _synthetic_key()
        remote.put(key, _entry())
        remote.close()
        digest = key_digest(key)
        path = cache_server.store.root / digest[:2] / f"{digest}.json"
        payload = json.loads(path.read_text())
        payload["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        assert remote.get(key) is None
        assert remote.stats.version_rejections == 1
        remote.close()

    def test_server_enforces_content_addressing_on_put(self, cache_server):
        """No writer can poison another key: digest must match the payload."""
        import http.client

        key, other = _synthetic_key(), _synthetic_key(engine="greedy")
        body = json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "key": json.loads(
                    json.dumps(
                        {
                            "hardware": key.hardware,
                            "segment": [list(s) for s in key.segment],
                            "engine": key.engine,
                            "pipelined": key.pipelined,
                            "refine": key.refine,
                            "allow_memory_mode": key.allow_memory_mode,
                            "reserve_arrays": key.reserve_arrays,
                        }
                    )
                ),
                "entry": _entry().to_payload(),
            }
        ).encode()
        conn = http.client.HTTPConnection("127.0.0.1", cache_server.bound_port, timeout=5)
        # PUT the payload of `key` under `other`'s digest: must be refused.
        conn.request("PUT", f"/entry/{key_digest(other)}", body=body)
        response = conn.getresponse()
        response.read()
        assert response.status == 400
        assert cache_server.store.get(other) is None
        conn.close()


class TestThreeTierCache:
    def test_remote_hit_promotes_into_both_local_tiers(self, cache_server, tmp_path):
        key, entry = _synthetic_key(), _entry()
        writer = RemoteCacheStore(cache_server.url)
        writer.put(key, entry)
        writer.close()

        store = DiskCacheStore(tmp_path / "local")
        cache = AllocationCache(store=store, remote=RemoteCacheStore(cache_server.url))
        result = cache.lookup(key, ["a", "b"])
        assert result is not None and result.from_cache and result.from_disk
        assert cache.stats.remote_hits == 1 and cache.stats.hits == 1
        # Promoted: the next lookup is a pure memory hit...
        cache.lookup(key, ["a", "b"])
        assert cache.stats.remote_hits == 1 and cache.stats.hits == 2
        # ...and the disk tier can now serve a *different* cache offline.
        assert DiskCacheStore(tmp_path / "local").get(key) == entry

    def test_fresh_solves_write_through_to_remote(self, cache_server):
        key, entry = _synthetic_key(), _entry()
        cache = AllocationCache(remote=RemoteCacheStore(cache_server.url))
        names = ["a", "b"]
        result = entry.to_result(names)
        from dataclasses import replace

        cache.put(key, {"a": None, "b": None}, replace(result, from_cache=False))
        cache.remote.close()
        assert RemoteCacheStore(cache_server.url).get(key) == entry

    def test_remoteless_cache_unchanged(self):
        cache = AllocationCache()
        assert cache.remote is None
        assert cache.lookup(_synthetic_key(), ["a"]) is None
        assert cache.stats.remote_hits == 0


# ---------------------------------------------------------------------- #
# the compile daemon
# ---------------------------------------------------------------------- #
class TestCompileDaemon:
    @pytest.fixture()
    def daemon(self, tmp_path):
        daemon = CompileDaemon(cache_dir=tmp_path / "daemon-cache", workers=2)
        daemon.start_background()
        yield daemon
        daemon.shutdown()

    def test_concurrent_identical_requests_coalesce_to_one_compile(self, daemon):
        """The acceptance tripwire: N clients, one allocator-solving compile."""
        fan_out = 4
        barrier = threading.Barrier(fan_out)
        results, errors = [], []

        def fire():
            client = Client(daemon.url, retries=1)
            try:
                barrier.wait(10)
                results.append(client.compile("tiny-mlp", hardware="small-test-chip"))
            except Exception as exc:  # noqa: BLE001 - assert below
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=fire) for _ in range(fan_out)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors
        assert len(results) == fan_out
        fingerprints = {result.fingerprint for result in results}
        assert len(fingerprints) == 1
        assert all(result.verify() for result in results)
        counters = daemon.counters()
        assert counters["compiles_executed"] == 1
        assert counters["coalesced_hits"] == fan_out - 1
        assert sum(result.coalesced for result in results) == fan_out - 1
        # The solver tripwire: total solves equal one cold compile's.
        local = Session(hardware="small-test-chip")
        program = local.compile("tiny-mlp", options=CompilerOptions(generate_code=False))
        assert counters["solves_executed"] == program.stats["allocator_solves"]
        assert fingerprints == {program.fingerprint()}

    def test_unknown_model_is_a_structured_400(self, daemon):
        client = Client(daemon.url, retries=1)
        with pytest.raises(CompileRequestError) as excinfo:
            client.compile("no-such-model")
        assert excinfo.value.code == "bad_request"
        assert "registered models" in str(excinfo.value)
        client.close()

    def test_batch_endpoint_isolates_failures(self, daemon):
        client = Client(daemon.url, retries=1)
        outcomes = client.compile_batch(
            [
                CompileJob("tiny-mlp", hardware="small-test-chip"),
                CompileJob("no-such-model"),
            ]
        )
        assert len(outcomes) == 2
        assert outcomes[0].verify()
        assert isinstance(outcomes[1], CompileRequestError)
        client.close()

    def test_stats_and_metrics_endpoints(self, daemon):
        client = Client(daemon.url, retries=1)
        client.compile("tiny-mlp", hardware="small-test-chip")
        stats = client.cache_stats()
        assert stats["serve"]["requests"] >= 1
        assert "coalescing" in stats and "cache" in stats
        text = client.metrics_text()
        assert "serve_compiles_executed" in text
        assert "serve_flights_started" in text
        client.close()

    def test_draining_daemon_refuses_new_work(self, tmp_path):
        daemon = CompileDaemon(workers=1)
        daemon.start_background()
        client = Client(daemon.url, retries=0)
        assert client.healthy(wait_seconds=5)
        daemon._draining.set()
        with pytest.raises(CompileRequestError) as excinfo:
            client.compile("tiny-mlp", hardware="small-test-chip")
        assert excinfo.value.code == "draining"
        client.close()
        daemon.shutdown()


# ---------------------------------------------------------------------- #
# Session integration (the cross-machine acceptance path, in-process)
# ---------------------------------------------------------------------- #
class TestSessionRemoteCache:
    def test_empty_local_cache_warm_compiles_with_zero_solves(
        self, cache_server, tmp_path
    ):
        options = CompilerOptions(generate_code=False)
        with Session(hardware="small-test-chip", remote_cache=cache_server.url) as warm:
            cold = warm.compile("tiny-mlp", options=options)
            assert cold.stats["allocator_solves"] > 0

        # A different "machine": empty local cache dir, same cache server.
        with Session(
            hardware="small-test-chip",
            cache_dir=tmp_path / "other-machine",
            remote_cache=cache_server.url,
        ) as other:
            program = other.compile("tiny-mlp", options=options)
            assert program.stats["allocator_solves"] == 0
            assert program.fingerprint() == cold.fingerprint()
            assert other.cache_stats.remote_hits > 0
            assert other.cache_stats.misses == 0

    def test_context_manager_closes_and_stays_usable(self):
        with Session(hardware="small-test-chip") as session:
            assert session.compile("tiny-mlp").num_segments >= 1
        session.close()  # idempotent
        assert session.compile("tiny-mlp").num_segments >= 1  # reconnectable


# ---------------------------------------------------------------------- #
# transport: one write per response, TCP_NODELAY at both ends
# ---------------------------------------------------------------------- #
@pytest.fixture()
def sends(monkeypatch):
    """Every socket send in the process as ``(local port, peer port, nodelay)``."""
    calls = []
    for name in ("send", "sendall"):
        original = getattr(socket.socket, name)

        def spy(sock, data, *args, _original=original):
            calls.append(
                (
                    sock.getsockname()[1],
                    sock.getpeername()[1],
                    sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY),
                )
            )
            return _original(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, spy)
    return calls


def _response_sends(sends, port, request):
    """Run ``request`` and return the sends the server on ``port`` made for it."""
    del sends[:]
    request()
    return [call for call in sends if call[0] == port]


def _wait_for_new_handler_threads(before):
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if not any(
            "process_request_thread" in thread.name
            for thread in set(threading.enumerate()) - before
        ):
            return
        time.sleep(0.01)


class TestTransport:
    def test_cache_server_answers_every_request_in_one_nodelay_send(
        self, cache_server, sends
    ):
        port = cache_server.bound_port
        remote = RemoteCacheStore(cache_server.url)
        key = _synthetic_key()

        def put_and_flush():
            remote.put(key, _entry())
            remote.close()

        def metrics():
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("GET", "/metrics")
            assert b"cache_server_entries" in conn.getresponse().read()
            conn.close()

        requests = {
            "GET miss": lambda: remote.get(key),
            "HEAD miss": lambda: remote.contains(key),
            "PUT": put_and_flush,
            "GET hit": lambda: remote.get(key),
            "HEAD hit": lambda: remote.contains(key),
            "/healthz": remote.healthy,
            "/metrics": metrics,
        }
        for label, request in requests.items():
            server_sends = _response_sends(sends, port, request)
            assert len(server_sends) == 1, (label, server_sends)
            assert server_sends[0][2], f"{label}: accepted socket lacks TCP_NODELAY"
        assert remote.stats.hits == 1 and remote.stats.stores == 1
        client_sends = [call for call in sends if call[1] == port]
        assert client_sends and all(nodelay for _, _, nodelay in client_sends)
        remote.close()

    def test_daemon_answers_every_request_in_one_nodelay_send(self, sends):
        daemon = CompileDaemon(workers=1)
        daemon.start_background()
        port = daemon.bound_port
        client = Client(daemon.url, retries=1)
        try:
            requests = {
                "/healthz": client.healthy,
                "/v1/compile": lambda: client.compile("tiny-mlp", hardware="small-test-chip"),
                "/metrics": client.metrics_text,
            }
            for label, request in requests.items():
                server_sends = _response_sends(sends, port, request)
                assert len(server_sends) == 1, (label, server_sends)
                assert server_sends[0][2], f"{label}: accepted socket lacks TCP_NODELAY"
            client_sends = [call for call in sends if call[1] == port]
            assert client_sends and all(nodelay for _, _, nodelay in client_sends)
        finally:
            client.close()
            daemon.shutdown()

    def test_head_answer_carries_no_body(self, cache_server):
        """A HEAD 404 must not leave a body on the kept-alive connection."""
        conn = http.client.HTTPConnection("127.0.0.1", cache_server.bound_port, timeout=5)
        conn.request("HEAD", f"/entry/{key_digest(_synthetic_key())}")
        response = conn.getresponse()
        assert response.status == 404 and response.read() == b""
        conn.request("GET", "/healthz")  # same connection: must parse cleanly
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
        conn.close()

    def test_http09_request_gets_the_bare_body(self, cache_server, capfd):
        sock = socket.create_connection(("127.0.0.1", cache_server.bound_port), timeout=5)
        sock.sendall(b"GET /healthz\r\n\r\n")
        data = b""
        while chunk := sock.recv(4096):
            data += chunk
        sock.close()
        assert json.loads(data)["status"] == "ok"
        assert capfd.readouterr().err == ""

    def test_client_hanging_up_leaves_stderr_clean(self, cache_server, capfd):
        port = cache_server.bound_port
        digest = "ab" * 32  # a large entry: the body cannot leave in one go
        path = cache_server.store.root / digest[:2] / f"{digest}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b" " * MAX_ENTRY_BYTES)
        before = set(threading.enumerate())
        reset = struct.pack("ii", 1, 0)  # SO_LINGER 0: close() sends RST
        for request, read in (
            (f"GET /entry/{digest} HTTP/1.1\r\nHost: x\r\n\r\n", 16),  # mid-response
            ("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 0),  # before the response
        ):
            sock = socket.create_connection(("127.0.0.1", port), timeout=5)
            sock.sendall(request.encode())
            if read:
                assert sock.recv(read)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, reset)
            sock.close()
        # A kept-alive connection reset while idle.
        sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert sock.recv(4096).startswith(b"HTTP/1.1 200")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, reset)
        sock.close()
        _wait_for_new_handler_threads(before)
        probe = RemoteCacheStore(cache_server.url)
        assert probe.healthy()
        probe.close()
        assert capfd.readouterr().err == ""


# ---------------------------------------------------------------------- #
# write-behind: write-through off the solve path
# ---------------------------------------------------------------------- #
@pytest.fixture()
def writer_gate(monkeypatch):
    """Holds every write-behind send until the returned event is set."""
    gate = threading.Event()
    original = RemoteCacheStore._write

    def gated(store, key, entry):
        gate.wait(30)
        original(store, key, entry)

    monkeypatch.setattr(RemoteCacheStore, "_write", gated)
    yield gate
    gate.set()


def _wait_for_writers():
    for thread in threading.enumerate():
        if thread.name == "repro-remote-writer":
            thread.join(10)


class TestWriteBehind:
    OPTIONS = CompilerOptions(generate_code=False)

    def test_closed_session_reconnects_and_writes_through(self, cache_server):
        session = Session(hardware="small-test-chip", remote_cache=cache_server.url)
        session.compile("tiny-mlp", options=self.OPTIONS)
        session.close()
        cold = session.compile("tiny-cnn", options=self.OPTIONS)
        assert cold.stats["allocator_solves"] > 0
        session.close()
        stats = session.service.remote_cache.stats
        assert stats.stores == session.cache_stats.stores
        assert stats.errors == stats.dropped == 0
        # A fresh session right after close() sees every entry.
        with Session(hardware="small-test-chip", remote_cache=cache_server.url) as fresh:
            program = fresh.compile("tiny-cnn", options=self.OPTIONS)
        assert program.stats["allocator_solves"] == 0
        assert program.fingerprint() == cold.fingerprint()

    def test_every_put_lands_with_a_solver_pool(self, cache_server):
        with Session(
            hardware="small-test-chip", remote_cache=cache_server.url, solve_jobs=2
        ) as session:
            program = session.compile("tiny-cnn", options=self.OPTIONS)
        stats = session.service.remote_cache.stats
        solves = program.stats["allocator_solves"]
        assert solves > 0 and stats.stores == solves
        assert stats.errors == stats.dropped == 0
        assert cache_server.store.usage()["files"] == solves

    def test_server_killed_before_flush(self, tmp_path, writer_gate):
        local = Session(hardware="small-test-chip").compile("tiny-mlp", options=self.OPTIONS)
        server = CacheServer(tmp_path / "served")
        server.start_background()
        session = Session(hardware="small-test-chip", remote_cache=server.url)
        program = session.compile("tiny-mlp", options=self.OPTIONS)
        server.shutdown()
        writer_gate.set()
        started = time.monotonic()
        session.close()
        assert time.monotonic() - started <= remote_module.FLUSH_TIMEOUT
        stats = session.service.remote_cache.stats
        assert stats.stores == 0 and stats.dropped == 0
        assert stats.errors == program.stats["allocator_solves"] > 0
        assert program.fingerprint() == local.fingerprint()

    def test_flush_gives_up_at_its_bound(self, cache_server, writer_gate, monkeypatch):
        monkeypatch.setattr(remote_module, "FLUSH_TIMEOUT", 0.05)
        session = Session(hardware="small-test-chip", remote_cache=cache_server.url)
        solves = session.compile("tiny-mlp", options=self.OPTIONS).stats["allocator_solves"]
        session.close()  # the writer is wedged on its first entry
        writer_gate.set()
        _wait_for_writers()
        stats = session.service.remote_cache.stats
        assert stats.stores == 1 and stats.dropped == solves - 1

    def test_full_queue_drops_without_blocking_the_compile(
        self, cache_server, writer_gate, monkeypatch
    ):
        monkeypatch.setattr(remote_module, "WRITE_QUEUE_LIMIT", 2)
        session = Session(hardware="small-test-chip", remote_cache=cache_server.url)
        # The writer is held on its first entry for the whole compile.
        solves = session.compile("tiny-cnn", options=self.OPTIONS).stats["allocator_solves"]
        stats = session.service.remote_cache.stats
        assert stats.dropped >= solves - 3 > 0
        writer_gate.set()
        session.close()
        assert stats.stores + stats.dropped == solves
        assert stats.errors == 0

    def test_concurrent_puts_and_closes_lose_no_entry(self, cache_server, monkeypatch):
        """Every put is stored or counted as dropped, even across close()."""
        monkeypatch.setattr(remote_module, "WRITE_QUEUE_LIMIT", 4)
        remote = RemoteCacheStore(cache_server.url)
        threads, per_thread = 8, 25
        barrier = threading.Barrier(threads + 1)

        def writer(index):
            barrier.wait(10)
            for j in range(per_thread):
                remote.put(_synthetic_key(reserve_arrays=index * per_thread + j), _entry())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=writer, args=(i,)) for i in range(threads)]
            for thread in pool:
                thread.start()
            barrier.wait(10)
            for _ in range(3):
                remote.close()  # races the writers: a put may start a new writer
            for thread in pool:
                thread.join(30)
            assert not any(thread.is_alive() for thread in pool)
            remote.close()
        finally:
            sys.setswitchinterval(interval)
        stats = remote.stats
        assert stats.stores + stats.dropped == threads * per_thread
        assert stats.stores > 0 and stats.errors == 0
        assert cache_server.store.usage()["files"] == stats.stores

    def test_daemon_metrics_expose_dropped(self, cache_server):
        daemon = CompileDaemon(remote_cache=cache_server.url, workers=1)
        daemon.start_background()
        client = Client(daemon.url, retries=1)
        try:
            client.compile("tiny-mlp", hardware="small-test-chip")
            text = client.metrics_text()
        finally:
            client.close()
            daemon.shutdown()
        assert re.search(r"^cache_remote_dropped 0$", text, re.MULTILINE), text
        assert re.search(r"^cache_remote_stores \d+$", text, re.MULTILINE), text


# ---------------------------------------------------------------------- #
# CLI surface
# ---------------------------------------------------------------------- #
class TestBatchJsonOut:
    def test_json_report_mirrors_the_table(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main(["compile-batch", "tiny-mlp", "--json-out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "total allocator solves:" in stdout  # grep lines survive
        report = json.loads(out.read_text())
        assert report["totals"]["jobs"] == 1
        assert report["totals"]["failures"] == 0
        job = report["jobs"][0]
        assert job["label"] == "tiny-mlp" and job["ok"]
        assert job["allocator_solves"] == report["totals"]["allocator_solves"]
        assert job["latency_ms"] > 0
        assert "cache" in report
