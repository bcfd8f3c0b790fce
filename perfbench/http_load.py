"""Minimal HTTP/1.1 keep-alive client and the two load shapes of the serve workloads.

The client speaks just enough HTTP for ``repro serve`` (``Content-Length``
framing, keep-alive) so that client-side parsing stays a small, fixed share
of each measured latency.  Two load shapes share it:

- :func:`closed_loop` -- one caller per connection, each sending its next
  request only after the previous reply (callers that wait for answers);
- :func:`open_loop` -- seeded Poisson arrivals at a fixed offered rate over
  the given connections (independent users).  A request is
  timed from when it was *due*, so a stall also counts against the requests
  queued behind it, and the generator's own lateness is reported apart.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np


class Connection:
    """One persistent keep-alive connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 22
        )

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        """Send one request and return ``(status, body)``."""
        if self._writer is None:
            await self.open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        self._writer.write(head + body)
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        payload = await self._reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None


@dataclass
class Sample:
    """One request's outcome: pool index sent, latency, status, reply body."""

    index: int
    latency_s: float
    status: int
    body: bytes


@dataclass
class LoadResult:
    samples: List[Sample] = field(default_factory=list)
    transport_errors: int = 0
    late_s: List[float] = field(default_factory=list)
    #: Seconds from the last due time until every request had completed.
    drain_s: float = 0.0

    @property
    def ok(self) -> List[Sample]:
        return [s for s in self.samples if 200 <= s.status < 300]


async def closed_loop(
    conns: List[Connection],
    body_for: Callable[[int], bytes],
    *,
    seconds: float,
) -> LoadResult:
    """One caller per connection, request ``i`` carrying ``body_for(i)``.

    Request indices are handed out in send order, so every request is a
    different entry of the caller's input sequence.
    """
    result = LoadResult()
    counter = iter(range(1 << 62))
    deadline = time.perf_counter() + seconds

    async def caller(conn: Connection) -> None:
        while time.perf_counter() < deadline:
            i = next(counter)
            body = body_for(i)
            t0 = time.perf_counter()
            try:
                status, payload = await conn.request("POST", "/v1/schedule", body)
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
                result.transport_errors += 1
                await conn.close()
                continue
            result.samples.append(Sample(i, time.perf_counter() - t0, status, payload))

    await asyncio.gather(*(caller(c) for c in conns))
    return result


def poisson_schedule(rate: float, seconds: float, pool: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded arrival offsets (s) and pool indices for one open-loop step."""
    rng = np.random.default_rng(seed)
    n = int(rate * seconds * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    offsets = offsets[offsets < seconds]
    return offsets, rng.integers(0, pool, size=offsets.size)


async def open_loop(
    conns: List[Connection],
    bodies: List[bytes],
    offsets: np.ndarray,
    indices: np.ndarray,
    *,
    timeout: float,
) -> LoadResult:
    """Send ``bodies[indices[k]]`` when due at ``offsets[k]`` over ``conns``.

    Due requests wait in a client-side queue while every connection is
    busy; their latency counts from the due time.
    """
    result = LoadResult()
    queue: asyncio.Queue = asyncio.Queue()
    t_start = time.perf_counter()
    done = 0
    last_done = t_start

    async def sender(conn: Connection) -> None:
        nonlocal done, last_done
        while True:
            item = await queue.get()
            if item is None:
                return
            due, idx = item
            try:
                status, payload = await conn.request("POST", "/v1/schedule", bodies[idx])
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
                result.transport_errors += 1
                await conn.close()
            else:
                now = time.perf_counter()
                result.samples.append(Sample(int(idx), now - due, status, payload))
            done += 1
            last_done = time.perf_counter()

    tasks = [asyncio.ensure_future(sender(c)) for c in conns]
    for offset, idx in zip(offsets.tolist(), indices.tolist()):
        due = t_start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.late_s.append(max(0.0, time.perf_counter() - due))
        queue.put_nowait((due, idx))
    last_due = t_start + (float(offsets[-1]) if offsets.size else 0.0)
    for _ in conns:
        queue.put_nowait(None)
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=timeout)
    except asyncio.TimeoutError:
        for t in tasks:
            t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        result.transport_errors += int(offsets.size) - done
        last_done = time.perf_counter()
    result.drain_s = max(0.0, last_done - last_due)
    return result
