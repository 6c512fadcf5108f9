"""``repro serve`` / ``repro cache-server`` as real subprocesses.

Servers bind ephemeral ports and publish them through ``--port-file``.
Every spawned process is tracked by a :class:`ServerSet`, which drains
them with SIGTERM (expecting the "drained cleanly" line and exit 0) and
kills whatever is left when a workload fails, so one bad run cannot
leave a server behind for the next.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List
from urllib.parse import urlsplit

SPAWN_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0


@dataclass
class Server:
    role: str
    proc: subprocess.Popen
    log_path: str
    url: str = ""
    #: Spawn to first healthy ``/healthz`` answer.
    ready_s: float = 0.0

    def log(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()


class ServerSet:
    """Spawns servers and guarantees they are gone when the block ends."""

    def __init__(self, env: dict, work_dir: str) -> None:
        self._env = env
        self._work_dir = work_dir
        self._servers: List[Server] = []
        self._spawned = 0

    def spawn(self, role: str, args: List[str]) -> Server:
        """Start ``python -m repro.cli <args>`` and wait until it is healthy."""
        stem = os.path.join(self._work_dir, f"{role}-{self._spawned}")
        self._spawned += 1
        port_file = stem + ".port"
        started = time.perf_counter()
        with open(stem + ".log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *args, "--port-file", port_file],
                env=self._env,
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        server = Server(role, proc, stem + ".log")
        self._servers.append(server)
        deadline = started + SPAWN_TIMEOUT_S
        while time.perf_counter() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"{role} died on start-up:\n{server.log()}")
            if not server.url and os.path.exists(port_file) and os.path.getsize(port_file):
                with open(port_file, encoding="utf-8") as handle:
                    text = handle.read().strip()
                if text.isdigit():
                    server.url = f"http://127.0.0.1:{int(text)}"
            if server.url and _healthy(server.url):
                server.ready_s = time.perf_counter() - started
                return server
            time.sleep(0.01)
        raise RuntimeError(f"{role} was not healthy within {SPAWN_TIMEOUT_S:.0f} s")

    def drain(self, server: Server) -> bool:
        """SIGTERM one server; True when it drained cleanly and exited 0."""
        if server not in self._servers:
            return False
        self._servers.remove(server)
        server.proc.send_signal(signal.SIGTERM)
        try:
            server.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.proc.kill()
            server.proc.wait()
            return False
        return server.proc.returncode == 0 and "drained cleanly" in server.log()

    def drain_all(self) -> int:
        """Drain every remaining server; returns how many did not drain cleanly."""
        return sum(not self.drain(server) for server in list(self._servers))

    def __enter__(self) -> "ServerSet":
        return self

    def __exit__(self, *exc_info) -> None:
        for server in self._servers:
            if server.proc.poll() is None:
                server.proc.kill()
            server.proc.wait()
        self._servers.clear()


def _healthy(url: str) -> bool:
    conn = http.client.HTTPConnection(urlsplit(url).netloc, timeout=2.0)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        conn.close()
