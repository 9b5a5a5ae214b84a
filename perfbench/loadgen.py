"""Open-loop HTTP/1.1 load generator for the serve workloads.

Users of the prediction service are independent QAOA clients, so the load
is an open loop: requests come due on a seeded Poisson schedule whether or
not earlier ones have been answered.  One asyncio thread sends them over at
most ``nproc`` persistent keep-alive connections (TCP_NODELAY on the client
side).  A request that comes due while every connection is busy waits in
the client for a free one, and its latency is timed from the due time, so
that wait counts.

Request bytes are built before the clock starts.  The clock stops at the
last byte of the response; bodies are parsed only after the step, by the
caller.  Nothing here works around a slow server: there is no
``Connection: close`` and no connection per request, so a server-side
stall (such as a delayed-ACK wait between two writes of one response)
shows in the measured latency.
"""

from __future__ import annotations

import asyncio
import socket
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

#: Seconds before an unanswered request is abandoned as a timeout.
REQUEST_TIMEOUT_S = 5.0


def predict_request(body: bytes, host: str = "127.0.0.1") -> bytes:
    """A complete keep-alive ``POST /predict``, ready to write verbatim."""
    return (
        "POST /predict HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode() + body


def poisson_schedule(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds from step start) of ``count`` Poisson arrivals.

    The arrivals are conditioned on all ``count`` landing in
    ``[0, count / rate)``: sorted uniform draws, which is a Poisson process
    given its count.  Every seed then offers exactly the same load over
    exactly the same span, and only the arrival pattern differs.
    """
    span = count / rate
    return np.sort(rng.uniform(0.0, span, size=count))


@dataclass
class Outcome:
    """What happened to one request."""

    index: int
    due: float
    dispatched: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""  # "", "connection", "timeout"
    #: Set by the caller's output check, after the clock stops.
    correct: bool = True

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        """How far behind schedule the generator dispatched it."""
        return (self.dispatched - self.due) * 1e3

    @property
    def queue_ms(self) -> float:
        """Wait for a free connection."""
        return (self.sent - self.dispatched) * 1e3


@dataclass
class StepResult:
    """All outcomes of one rate step, plus the backlog trace."""

    rate: float
    start: float
    outcomes: List[Outcome] = field(default_factory=list)
    #: Requests waiting for a connection, sampled at each dispatch.
    backlog: List[int] = field(default_factory=list)
    aborted: bool = False


class _Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    def close(self) -> None:
        self.writer.close()


async def _open(host: str, port: int) -> _Connection:
    reader, writer = await asyncio.open_connection(host, port)
    sock = writer.get_extra_info("socket")
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return _Connection(reader, writer)


async def _exchange(conn: _Connection, request: bytes, outcome: Outcome) -> None:
    conn.writer.write(request)
    await conn.writer.drain()
    head = await conn.reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await conn.reader.readexactly(length) if length else b""
    outcome.done = time.perf_counter()
    outcome.status = int(head.split(None, 2)[1])
    outcome.body = body


class OpenLoopClient:
    """Persistent connections plus the open-loop step runner."""

    def __init__(self, host: str, port: int, connections: int):
        self.host = host
        self.port = port
        self.connections = connections
        self._idle: Optional[asyncio.Queue] = None
        self.reconnects = 0
        #: Requests dispatched but still waiting for a free connection.
        self.waiting = 0

    async def start(self) -> None:
        self._idle = asyncio.Queue()
        for _ in range(self.connections):
            self._idle.put_nowait(await _open(self.host, self.port))

    async def close(self) -> None:
        while not self._idle.empty():
            conn = self._idle.get_nowait()
            conn.close()
            await conn.writer.wait_closed()

    async def _one(self, request: bytes, outcome: Outcome) -> None:
        conn = await self._idle.get()
        self.waiting -= 1
        outcome.sent = time.perf_counter()
        try:
            await asyncio.wait_for(
                _exchange(conn, request, outcome), REQUEST_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            outcome.error = "timeout"
        except (ConnectionError, asyncio.IncompleteReadError, OSError, ValueError):
            outcome.error = "connection"
        if outcome.error:
            # The connection's framing is lost; replace it.
            outcome.done = time.perf_counter()
            conn.close()
            self.reconnects += 1
            try:
                conn = await _open(self.host, self.port)
            except OSError:
                return  # one connection fewer; later requests queue longer
        self._idle.put_nowait(conn)

    async def step(
        self,
        rate: float,
        requests: Sequence[bytes],
        schedule: Sequence[float],
        abort_after_misses: Optional[int] = None,
        limit_ms: float = 100.0,
    ) -> StepResult:
        """Send ``requests[i]`` at ``start + schedule[i]``; await all.

        With ``abort_after_misses`` the step stops dispatching once that
        many requests have already finished past ``limit_ms`` (or
        failed): the step has failed its latency criterion, and sending
        the rest would only pile load onto the next step.
        """
        loop = asyncio.get_running_loop()
        start = time.perf_counter() + 0.05
        result = StepResult(rate=rate, start=start)
        tasks = []
        misses = 0

        def _count(outcome: Outcome):
            def done(_task):
                nonlocal misses
                if outcome.error or outcome.status != 200 or outcome.latency_ms > limit_ms:
                    misses += 1
            return done

        for index, (request, offset) in enumerate(zip(requests, schedule)):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if abort_after_misses is not None and misses >= abort_after_misses:
                result.aborted = True
                break
            outcome = Outcome(index=index, due=due, dispatched=time.perf_counter())
            result.backlog.append(self.waiting)
            self.waiting += 1
            task = loop.create_task(self._one(request, outcome))
            task.add_done_callback(_count(outcome))
            tasks.append(task)
            result.outcomes.append(outcome)
        await asyncio.gather(*tasks)
        return result
