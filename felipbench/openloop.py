"""Open-loop frame generator and per-frame admission timing.

In an open loop, frame ``i`` is due at ``start + i / rate`` whatever the
service is doing, so a stall delays every frame due during it. Latency
is timed from the due time, never from the moment the generator got
round to sending, and the generator's own lateness is reported beside
it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, List, Sequence, Tuple


async def open_loop(submit: Callable[[bytes], Awaitable[object]],
                    frames: Sequence[bytes], rate: float, *,
                    clock: Callable[[], float] = time.perf_counter,
                    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
                    lead: float = 0.001) -> Tuple[List[float], List[float]]:
    """Submit ``frames`` at ``rate`` per second; return (due, sent) times.

    A frame whose due time has passed is sent at once, so after a stall
    the generator catches up in a burst instead of shifting the
    schedule.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    start = clock() + lead
    due = [start + i / rate for i in range(len(frames))]
    sent: List[float] = []
    for when, frame in zip(due, frames):
        delay = when - clock()
        if delay > 0:
            await sleep(delay)
        sent.append(clock())
        await submit(frame)
    return due, sent


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late the generator sent each frame (never negative)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


class AdmissionTimes:
    """Times the consumer's admission of each submitted frame.

    ``IngestionService`` calls ``stats.record_latency`` once per frame
    it takes off its FIFO queue, accepted or rejected, from its single
    consumer task; so the k-th call marks the k-th frame submitted. The
    recorder wraps that method on the service's own stats object and
    keeps the service's bookkeeping unchanged.
    """

    def __init__(self, stats, clock: Callable[[], float] = time.perf_counter):
        self.times: List[float] = []
        self._clock = clock
        self._target = 0
        self._event = asyncio.Event()
        original = stats.record_latency

        def record(seconds: float) -> None:
            original(seconds)
            self.times.append(clock())
            if self._target and len(self.times) >= self._target:
                self._event.set()

        stats.record_latency = record

    async def wait_for(self, frames: int) -> float:
        """Wait until ``frames`` frames have been admitted in total."""
        if len(self.times) < frames:
            self._target = frames
            self._event.clear()
            await self._event.wait()
            self._target = 0
        return self.times[frames - 1]
