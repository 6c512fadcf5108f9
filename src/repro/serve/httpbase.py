"""Shared stdlib-only HTTP plumbing of the serving tier.

Both servers in this package — the compile daemon and the cache server
— are built on ``http.server.ThreadingHTTPServer`` (one thread per
connection, no third-party dependencies) with the same conventions:

* HTTP/1.1 with explicit ``Content-Length`` on every response, so
  clients can keep connections alive;
* every response — status line, headers and body — leaves in **one**
  socket write (:func:`respond`), on sockets with ``TCP_NODELAY`` set at
  both ends (:class:`QuietHandler`, :func:`open_connection`).  Two small
  writes with Nagle on would hold the second one back until the peer's
  delayed ACK (~40 ms on Linux), on every request;
* JSON responses via :func:`respond_json`, structured errors via
  :func:`repro.serve.wire.error_payload`;
* request bodies are size-bounded (:func:`read_body`) — an oversized or
  length-less request is refused before any work happens;
* access logging goes to the ``repro`` logger at DEBUG (the CLI's
  ``-vv``), never to stderr on its own — and so does a client hanging
  up mid-request or mid-response.
"""

from __future__ import annotations

import http.client
import json
import logging
import socket
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

__all__ = [
    "QuietHandler",
    "ServingHTTPServer",
    "open_connection",
    "read_body",
    "respond",
    "respond_json",
    "respond_text",
]

LOGGER = logging.getLogger("repro")

#: Request bodies above this are refused with 413 (a compile job — even
#: a large serialised graph — is far below it; this is a safety bound,
#: not a tuning knob).
MAX_BODY_BYTES = 64 * 1024 * 1024


class ServingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server preconfigured for the serving tier.

    ``daemon_threads`` so a shutdown never hangs on a stuck connection
    thread; ``allow_reuse_address`` so restarts do not trip over
    TIME_WAIT sockets.
    """

    daemon_threads = True
    allow_reuse_address = True

    def handle_error(self, request, client_address) -> None:
        """A peer that hung up is routine; anything else keeps the stdlib report."""
        if isinstance(sys.exc_info()[1], ConnectionError):
            LOGGER.debug("%s - connection dropped by peer", client_address[0])
            return
        super().handle_error(request, client_address)

    @property
    def bound_port(self) -> int:
        """The actual port (meaningful after binding with port 0)."""
        return self.server_address[1]


class QuietHandler(BaseHTTPRequestHandler):
    """Request handler base: HTTP/1.1, logging routed to the repro logger."""

    protocol_version = "HTTP/1.1"
    #: Overridden by servers to show up in the Server response header.
    server_version = "repro-serve"
    #: TCP_NODELAY on every accepted socket (applied by the stdlib's setup()).
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        LOGGER.debug("%s - %s", self.address_string(), format % args)

    def log_error(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        LOGGER.debug("%s - error - %s", self.address_string(), format % args)


def open_connection(host: str, port: int, timeout: float) -> http.client.HTTPConnection:
    """A kept-alive client connection whose socket has ``TCP_NODELAY`` set.

    The one way both clients of the serving tier (``Client`` and
    ``RemoteCacheStore``) open connections, so neither can regress into
    waiting on the server's delayed ACK between request headers and body.
    """
    return _NoDelayConnection(host, port, timeout=timeout)


class _NoDelayConnection(http.client.HTTPConnection):
    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def respond(
    handler: BaseHTTPRequestHandler,
    status: int,
    body: bytes,
    content_type: Optional[str] = "application/json",
) -> None:
    """Send one complete response in a single socket write.

    The stdlib sends the header block and the body as separate writes;
    here the header lines built by ``send_response``/``send_header``
    (which also log the request and stamp ``Server``/``Date``) are joined
    with the body first.  A HEAD answer carries the body's
    ``Content-Length`` but not the body, as HTTP requires — a body there
    would desynchronise the kept-alive connection.  An HTTP/0.9 request
    gets the bare body, as from the stdlib.  A client that hung up ends
    the connection quietly.
    """
    handler.send_response(status)
    if content_type is not None:
        handler.send_header("Content-Type", content_type)
    handler.send_header("Content-Length", str(len(body)))
    # send_response/send_header buffer no header lines for HTTP/0.9.
    lines = getattr(handler, "_headers_buffer", [])
    head = b"".join(lines) + b"\r\n" if lines else b""
    handler._headers_buffer = []
    try:
        handler.wfile.write(head if handler.command == "HEAD" else head + body)
    except (BrokenPipeError, ConnectionResetError):
        handler.close_connection = True  # the client hung up


def respond_json(handler: BaseHTTPRequestHandler, status: int, payload) -> None:
    """Send ``payload`` as a JSON response with an exact Content-Length."""
    respond(handler, status, json.dumps(payload, sort_keys=True).encode("utf-8"))


def respond_text(
    handler: BaseHTTPRequestHandler,
    status: int,
    text: str,
    content_type: str = "text/plain; charset=utf-8",
) -> None:
    """Send a plain-text response (the ``/metrics`` endpoints use this)."""
    respond(handler, status, text.encode("utf-8"), content_type)


def read_body(
    handler: BaseHTTPRequestHandler, max_bytes: int = MAX_BODY_BYTES
) -> Tuple[Optional[bytes], Optional[Tuple[int, str]]]:
    """Read the request body, enforcing presence and size of Content-Length.

    Returns:
        ``(body, None)`` on success, ``(None, (status, message))`` when
        the request must be refused (411 without a length, 413 over the
        bound, 400 on a short read).
    """
    length_header = handler.headers.get("Content-Length")
    if length_header is None:
        return None, (411, "Content-Length is required")
    try:
        length = int(length_header)
    except ValueError:
        return None, (400, f"invalid Content-Length {length_header!r}")
    if length < 0:
        return None, (400, f"invalid Content-Length {length}")
    if length > max_bytes:
        return None, (413, f"request body of {length} bytes exceeds {max_bytes}")
    body = handler.rfile.read(length)
    if len(body) != length:
        return None, (400, "request body shorter than Content-Length")
    return body, None
