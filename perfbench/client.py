"""``repro serve`` in its own process, and a closed-loop HTTP client.

:class:`Server` starts ``python -m repro serve`` (or, for traced runs,
``perfbench/traced_serve.py``, which installs the span wrappers and then
runs the same CLI), waits until it answers, and on exit stops it with
SIGTERM and waits for it — falling back to SIGKILL — so no server
outlives the benchmark, even when the client raises.

:func:`closed_loop` drives keep-alive connections from one thread with
:mod:`selectors`: each connection works through *episodes* (generators
that yield requests and receive responses) one request at a time, so a
client only sends its next request after the previous answer arrived.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Generator, Iterator, Optional, Tuple

from perfbench.common import Scaled, reference_ms

ROOT = Path(__file__).resolve().parents[1]
#: keep-alive connections the client holds (one adaptation manager: with
#: two, each request's latency took in whatever the other connection's
#: request held the server's interpreter lock for)
CONNECTIONS = 1

Request = Tuple[str, str, bytes]  # (method, path, body)
Episode = Generator[Request, "Response", None]


@dataclass
class Response:
    rid: int
    status: int
    body: bytes
    latency: float  # seconds, send of first byte -> last byte received
    scaled: float  # latency scaled to the reference machine (common.Scaled)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")])
    )
    env.pop("PYTHONHASHSEED", None)
    return env


class Server:
    """A single-worker ``repro serve`` subprocess on a free port."""

    def __init__(self, spans_path: Optional[str] = None):
        command = [sys.executable]
        if spans_path is None:
            command += ["-m", "repro"]
        else:
            command += [str(ROOT / "perfbench" / "traced_serve.py"), spans_path]
        command += ["serve", "--port", "0", "--workers", "1"]
        self.command = command
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def __enter__(self) -> "Server":
        self.process = subprocess.Popen(
            self.command, cwd=ROOT, env=program_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].split()[0])
        return self

    def read_peak_rss(self) -> float:
        """The server's peak resident set (``VmHWM``) in MB."""
        assert self.process is not None
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in the server's /proc status")

    def __exit__(self, *exc_info) -> None:
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        process.stdout.close()


class Connection:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.episode: Optional[Episode] = None
        self.rid = -1
        self.sent = 0.0
        self.reference = 0.0

    def send(self, rid: int, request: Request) -> None:
        method, path, body = request
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nX-Request-Id: {rid}\r\n\r\n"
        ).encode("ascii")
        self.rid = rid
        self.sent = time.perf_counter()
        self.sock.sendall(head + body)

    def take_response(self) -> Optional[Tuple[int, bytes]]:
        """A complete response off the buffer, or None if more is needed."""
        buffer = self.buffer
        end = buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(buffer[:end]).decode("latin-1")
        status = int(head.split(" ", 2)[1])
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        if len(buffer) < total:
            return None
        body = bytes(buffer[end + 4:total])
        del buffer[:total]
        return status, body

    def close(self) -> None:
        self.sock.close()


def request_once(port: int, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
    """One blocking request on a fresh connection (set-up and stats)."""
    conn = Connection(port)
    try:
        conn.send(-1, (method, path, body))
        while True:
            data = conn.sock.recv(1 << 20)
            if not data:
                raise ConnectionError("server closed the connection")
            conn.buffer += data
            answer = conn.take_response()
            if answer is not None:
                return answer
    finally:
        conn.close()


def closed_loop(port: int, episodes: Iterator[Episode], seconds: float,
                scaled: Scaled) -> float:
    """Run *episodes* over :data:`CONNECTIONS` keep-alive connections.

    Each episode is a generator: it yields a request, receives the
    :class:`Response` through ``send``, and yields the next one.  No new
    episode starts after *seconds*; an episode under way then finishes.
    The reference computation is timed just before each request is sent
    and just after its answer arrives, to scale its latency with
    *scaled*.  Returns the wall seconds the loop ran.
    """
    selector = selectors.DefaultSelector()
    conns = [Connection(port) for _ in range(CONNECTIONS)]
    rid = 0
    started = time.perf_counter()
    deadline = started + seconds

    def advance(conn: Connection, response: Optional[Response]) -> bool:
        nonlocal rid
        while True:
            if conn.episode is None:
                if time.perf_counter() >= deadline:
                    return False
                conn.episode = next(episodes, None)
                if conn.episode is None:
                    return False
                response = None
            try:
                request = (
                    next(conn.episode) if response is None
                    else conn.episode.send(response)
                )
            except StopIteration:
                conn.episode = None
                response = None
                continue
            conn.reference = reference_ms()
            conn.send(rid, request)
            rid += 1
            return True

    try:
        live = 0
        for conn in conns:
            if advance(conn, None):
                selector.register(conn.sock, selectors.EVENT_READ, conn)
                live += 1
        while live:
            for key, _ in selector.select(timeout=60):
                conn = key.data
                data = conn.sock.recv(1 << 20)
                if not data:
                    raise ConnectionError("server closed a connection")
                conn.buffer += data
                answer = conn.take_response()
                if answer is None:
                    continue
                latency = time.perf_counter() - conn.sent
                response = Response(
                    conn.rid, answer[0], answer[1], latency,
                    scaled.scale(latency, conn.reference, reference_ms()),
                )
                if not advance(conn, response):
                    selector.unregister(conn.sock)
                    live -= 1
        return time.perf_counter() - started
    finally:
        selector.close()
        for conn in conns:
            conn.close()
