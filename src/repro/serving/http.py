"""The one HTTP transport: reused accept threads, a hand-parsed request
head, one write per response.

Every listener of this package — the standalone service, the prefork
worker on the supervisor's shared socket, the control port and the
federation router — is an :class:`HttpServer` around a plain
``handle(request) -> (status, headers, payload)`` function.

Thread model: a small pool of daemon threads takes turns waiting on the
(non-blocking) listening socket — one at a time, so a connection wakes
one thread, not the pool — and the thread that accepts a connection
reads the request, calls ``handle`` and answers with a single
``sendall`` before it queues for the listener again.  Whenever the last
idle thread takes a connection another is started, so concurrency is
never bounded by the pool; surplus threads retire when they finish.
:meth:`HttpServer.stop` returns only after every accepted request has
been answered — the guarantee the SIGTERM drain path is built on.

Deliberately unsupported: keep-alive (one request per connection,
answered as HTTP/1.0), chunked request bodies and
``Expect: 100-continue``.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
from http import HTTPStatus
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.errors import (
    ConflictError,
    DeadlineExceeded,
    Overloaded,
    PayloadTooLarge,
    ReproError,
    RequestValidationError,
    ServiceNotReady,
)

#: ``(status, extra headers, JSON payload)``; the transport adds
#: ``Content-Type`` and ``Content-Length``.
Response = Tuple[int, Dict[str, str], bytes]

#: Idle threads kept between requests.
BASE_THREADS = 4
#: Cap on the request line plus headers (431 beyond it).
MAX_HEAD_BYTES = 65536
#: A client that stalls this long mid-request or mid-response is cut
#: off, so it can neither hold a thread forever nor wedge ``stop()``.
IO_TIMEOUT_S = 30.0

_STATUS_LINES = {
    s.value: f"HTTP/1.0 {s.value} {s.phrase}\r\n"
    "Content-Type: application/json\r\nContent-Length: "
    for s in HTTPStatus
}


def error_body(error) -> dict:
    """The one error shape every response uses.

    ``error`` is an exception or a plain message; ``field`` and
    ``hint`` come from the exception when it carries them
    (``RequestValidationError.field``, ``ReproError.hint``) and are
    ``null`` otherwise — clients can always read all three keys.
    """
    return {
        "error": str(error),
        "field": getattr(error, "field", None),
        "hint": getattr(error, "hint", None),
    }


def json_response(
    status: int, body, headers: Optional[Dict[str, str]] = None
) -> Response:
    return status, headers or {}, json.dumps(body).encode()


def _retry_after(seconds: float) -> Dict[str, str]:
    """Retry-After wants whole seconds; round up, floor at 1."""
    return {"Retry-After": str(max(1, int(seconds + 0.999)))}


def error_response(exc: Exception, extra: Optional[dict] = None) -> Response:
    """Map an exception raised by a route to its status and JSON body
    (the status-code contract in :mod:`repro.service`); ``extra`` keys
    are merged into the body."""
    headers = None
    message: object = exc
    if isinstance(exc, Overloaded):
        status, headers = 429, _retry_after(exc.retry_after)
    elif isinstance(exc, ServiceNotReady):
        status, headers = 503, _retry_after(exc.retry_after)
    elif isinstance(exc, DeadlineExceeded):
        status = 504
    elif isinstance(exc, PayloadTooLarge):
        status = 413
    elif isinstance(exc, ConflictError):
        status = 409
    elif isinstance(exc, (ReproError, KeyError, ValueError)):
        status = 400
    else:  # unexpected: a JSON 500, and the thread survives
        status = 500
        message = f"internal error: {exc.__class__.__name__}: {exc}"
    body = error_body(message)
    if extra:
        body.update(extra)
    return json_response(status, body, headers)


class Request:
    """One parsed request head; the body is read when a route asks."""

    __slots__ = (
        "method", "target", "path", "params",
        "_headers", "_buffered", "_conn", "_max_body",
    )

    def __init__(self, method, target, headers, buffered, conn, max_body):
        self.method: str = method
        #: The request target as sent (path plus query string).
        self.target: str = target
        self.path, _, query = target.partition("?")
        #: First value of every non-blank query parameter.
        self.params: Dict[str, str] = (
            {key: values[0] for key, values in parse_qs(query).items()}
            if query
            else {}
        )
        self._headers: List[str] = headers
        self._buffered: bytes = buffered
        self._conn = conn
        self._max_body: int = max_body

    def body(self) -> bytes:
        """The ``Content-Length`` bytes after the head (fewer when the
        client closed early).  Raises 400 on a malformed length and 413
        beyond the cap — after a bounded drain, so a client mid-upload
        finishes its write and reads the response instead of dying on
        EPIPE; bodies beyond the drain bound get the connection
        closed."""
        raw_length = ""
        for line in self._headers:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                raw_length = value.strip()
                break
        try:
            length = int(raw_length or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise RequestValidationError(
                f"invalid Content-Length: {raw_length!r}",
                field="Content-Length",
            )
        oversized = length > self._max_body
        wanted = min(length, 4 * self._max_body)
        chunks, have = [self._buffered], len(self._buffered)
        while have < wanted:
            chunk = self._conn.recv(min(65536, wanted - have))
            if not chunk:
                break
            have += len(chunk)
            if not oversized:
                chunks.append(chunk)
        if oversized:
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self._max_body} byte limit"
            )
        return b"".join(chunks)[:length]

    def json_body(self) -> dict:
        """The body as a JSON object (``{}`` when empty)."""
        raw = self.body()
        if not raw:
            return {}
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON body: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("JSON body must be an object")
        return data


class HttpServer:
    """Serve ``handle`` on ``sock``, or on a fresh socket bound to
    ``(host, port)``; ``self.port`` is the bound port."""

    def __init__(
        self,
        handle: Callable[[Request], Response],
        sock: Optional[socket.socket] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = 1 << 20,
    ) -> None:
        if sock is None:
            sock = socket.create_server((host, port), backlog=128)
        # Non-blocking: a thread (or, on the supervisor's shared
        # socket, a process) that loses the accept race gets EAGAIN
        # instead of hanging where stop() cannot reach it.
        sock.setblocking(False)
        self.sock = sock
        self.port: int = sock.getsockname()[1]
        self.handle = handle
        self.max_body_bytes = max_body_bytes
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._turn = threading.Lock()  # held by the thread at the listener
        self._lock = threading.Lock()  # guards the three fields below
        self._threads: set = set()
        self._idle = 0
        self._stopping = False

    def start(self) -> int:
        with self._lock:
            for _ in range(BASE_THREADS):
                self._spawn()
        return self.port

    def stop(self) -> None:
        """Stop accepting, answer every accepted request, release the
        sockets."""
        with self._lock:
            self._stopping = True
            threads = list(self._threads)
        # Never read, so the selector reports it to every thread from
        # now on (a byte, not EOF: forked children hold copies of the
        # descriptor, and closing ours would not end the stream).
        self._wake_w.send(b"x")
        for thread in threads:
            thread.join()
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()
        self.sock.close()

    def _spawn(self) -> None:  # caller holds self._lock
        thread = threading.Thread(target=self._run, daemon=True)
        self._threads.add(thread)
        self._idle += 1
        thread.start()

    def _run(self) -> None:
        me = threading.current_thread()
        while True:
            with self._turn:
                conn = self._accept()
            with self._lock:
                self._idle -= 1
                if conn is None:
                    self._threads.discard(me)
                    return
                if self._idle == 0 and not self._stopping:
                    self._spawn()
            self._serve(conn)
            with self._lock:
                if self._idle >= BASE_THREADS:
                    self._threads.discard(me)
                    return
                self._idle += 1

    def _accept(self) -> Optional[socket.socket]:
        """Wait for the next connection; ``None`` once stopping."""
        while not self._stopping:
            self._selector.select()
            if self._stopping:
                break
            try:
                return self.sock.accept()[0]
            except OSError:
                continue  # lost the race, or the peer already left
        return None

    def _serve(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(IO_TIMEOUT_S)
            response = self._exchange(conn)
            if response is not None:
                status, headers, payload = response
                head = f"{_STATUS_LINES[status]}{len(payload)}\r\n" + "".join(
                    f"{key}: {value}\r\n" for key, value in headers.items()
                )
                conn.sendall(head.encode("latin-1") + b"\r\n" + payload)
        except OSError:
            pass  # client went away or stalled; nothing to salvage
        finally:
            conn.close()

    def _exchange(self, conn: socket.socket) -> Optional[Response]:
        data = conn.recv(65536)
        while (end := data.find(b"\r\n\r\n")) < 0:
            if len(data) > MAX_HEAD_BYTES:
                return json_response(431, error_body(
                    f"request head exceeds {MAX_HEAD_BYTES} bytes"
                ))
            chunk = conn.recv(65536)
            if not chunk:
                if not data:
                    return None  # connected and left: nothing to answer
                return json_response(
                    400, error_body("truncated request head")
                )
            data += chunk
        request_line, *headers = data[:end].decode("latin-1").split("\r\n")
        words = request_line.split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            return json_response(
                400, error_body(f"Bad request syntax ({request_line!r})")
            )
        method, target, _ = words
        if method not in ("GET", "POST"):
            return json_response(
                501, error_body(f"Unsupported method ({method!r})")
            )
        request = Request(
            method, target, headers, data[end + 4:], conn,
            self.max_body_bytes,
        )
        try:
            return self.handle(request)
        except Exception as exc:  # handle() failed: keep the thread
            return error_response(exc)
