"""Deterministic fault injection for the sharded executor.

:class:`FaultInjector` is the chaos-testing hook the fault-tolerant
executor (:func:`repro.core.parallel.run_sharded`) consults before every
shard attempt. It is fully deterministic — "fail shard k on attempt j" —
so chaos tests can assert the strongest possible property: a collection
that loses any single shard once and retries it is **bit-identical** to
the fault-free run (shard tasks re-enter with a replayed RNG stream; see
``repro.core.client``).

The injected exception, :class:`TransientShardFault`, deliberately does
*not* derive from :class:`~repro.errors.ReproError`: library-raised errors
are deterministic (a ProtocolError will recur on every replay), so the
executor only retries non-``ReproError`` failures — exactly the class an
infrastructure fault (OOM kill, interpreter shutdown, allocator hiccup)
lands in. For the opposite class — a *deterministic* poison pill used to
exercise the executor's fail-fast path — pass ``poison=[shard]``, which
raises :class:`PoisonedShardError` (a
:class:`~repro.errors.ReproError`) that is never retried.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import ReproError


def backoff_delay(attempt: int, base: float, *, cap: float = None,
                  jitter: float = 0.0, rng=None) -> float:
    """Delay before retrying ``attempt`` (0-based): capped exponential.

    The undecorated schedule is ``base * 2**attempt``, optionally clipped
    at ``cap``. With ``jitter`` in ``(0, 1]`` and an ``rng``, the delay is
    drawn uniformly from ``[delay * (1 - jitter), delay]`` — decorrelating
    a thundering herd of reconnecting clients while staying fully
    deterministic for a seeded generator. This is the one backoff
    schedule in the codebase: the sharded executor's retry loop and the
    wire client's reconnect loop both call it.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError(f"jitter must be in [0, 1], got {jitter}")
    delay = base * (2.0 ** attempt)
    if cap is not None:
        delay = min(delay, cap)
    if jitter and rng is not None:
        delay *= 1.0 - jitter * float(rng.random())
    return delay


class TransientShardFault(RuntimeError):
    """A simulated transient infrastructure failure inside one shard."""


class PoisonedShardError(ReproError):
    """A simulated *deterministic* shard failure (never retried)."""


class FaultInjector:
    """Fail chosen ``(shard, attempt)`` pairs of a sharded run.

    Parameters
    ----------
    fail:
        Iterable of ``(shard_index, attempt)`` pairs to fail transiently,
        e.g. ``[(3, 0)]`` kills shard 3's first attempt (its retry
        succeeds).
    fail_all_first_attempts:
        Convenience: fail attempt 0 of every shard (one full retry wave).
    poison:
        Iterable of shard indices that fail *deterministically* on every
        attempt with :class:`PoisonedShardError` — the executor treats
        this like any library error: no retry, fail fast.

    The injector counts what it did (``injected``) and is safe to consult
    from pool worker threads.
    """

    def __init__(self, fail: Iterable[Tuple[int, int]] = (),
                 fail_all_first_attempts: bool = False,
                 poison: Iterable[int] = ()):
        self._fail = {(int(s), int(a)) for s, a in fail}
        self._fail_all_first = bool(fail_all_first_attempts)
        self._poison = {int(s) for s in poison}
        self._lock = threading.Lock()
        self.injected: Dict[Tuple[int, int], int] = {}

    def maybe_fail(self, shard: int, attempt: int) -> None:
        """Raise the configured fault if this attempt is doomed."""
        if shard in self._poison:
            with self._lock:
                key = (shard, attempt)
                self.injected[key] = self.injected.get(key, 0) + 1
            raise PoisonedShardError(
                f"injected deterministic fault: shard {shard}")
        doomed = ((shard, attempt) in self._fail
                  or (self._fail_all_first and attempt == 0))
        if not doomed:
            return
        with self._lock:
            key = (shard, attempt)
            self.injected[key] = self.injected.get(key, 0) + 1
        raise TransientShardFault(
            f"injected fault: shard {shard}, attempt {attempt}")

    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def __repr__(self) -> str:
        return (f"FaultInjector(fail={sorted(self._fail)}, "
                f"fail_all_first_attempts={self._fail_all_first}, "
                f"poison={sorted(self._poison)}, "
                f"injected={self.total_injected})")


class NetworkFaultInjector:
    """Deterministic network chaos for the wire client/service pair.

    Where :class:`FaultInjector` dooms ``(shard, attempt)`` pairs of the
    in-process executor, this injector dooms *frame transmissions* of a
    :class:`~repro.service.client.WireClient` and *connections* of an
    :class:`~repro.service.IngestionService` — the full menu of things a
    real network does to an LDP collector. Every schedule is keyed by a
    deterministic counter, so a chaos test can assert the strongest
    property the session protocol promises: zero lost and zero
    double-counted users, bit-identical final estimates.

    Client-side schedules (keyed by the client's global 0-based send
    index, which counts retransmissions too):

    ``drop``
        The frame's bytes are silently discarded instead of written —
        simulated packet loss. The server detects the sequence gap when
        the next frame arrives and drops the connection, forcing the
        client to resynchronize; a drop on the *last* frame is caught by
        the client's ack-stall timeout.
    ``garble``
        One bit of the frame is flipped in transit. The server's CRC
        check rejects it as malformed, charges the bytes to the peer and
        drops the connection.
    ``stall``
        Mapping of send index to seconds slept before the write —
        simulated congestion.
    ``disconnect``
        The client's transport is torn down immediately *after* the
        write — simulated connection reset, possibly with the frame's
        ack still in flight (exercising server-side dedup on resend).

    Server-side schedule:

    ``server_disconnect``
        0-based indices into the server's global accepted-frame counter;
        after submitting that frame the connection that carried it is
        closed — a chaos-killed socket mid-stream.
    """

    def __init__(self, drop: Iterable[int] = (),
                 garble: Iterable[int] = (),
                 stall: Optional[Mapping[int, float]] = None,
                 disconnect: Iterable[int] = (),
                 server_disconnect: Iterable[int] = ()):
        self._drop = {int(i) for i in drop}
        self._garble = {int(i) for i in garble}
        self._stall = {int(k): float(v) for k, v in (stall or {}).items()}
        self._disconnect = {int(i) for i in disconnect}
        self._server_disconnect = {int(i) for i in server_disconnect}
        self._lock = threading.Lock()
        self.injected: Dict[str, int] = {}

    def _count(self, kind: str) -> None:
        with self._lock:
            self.injected[kind] = self.injected.get(kind, 0) + 1

    def plan_send(self, index: int) -> Tuple[Optional[str], float, bool]:
        """Fate of client send ``index``: ``(action, stall_s, disconnect)``.

        ``action`` is ``"drop"``, ``"garble"`` or ``None`` (deliver
        intact); ``stall_s`` seconds should be slept before the write;
        ``disconnect`` asks the client to tear its transport down after
        the write.
        """
        stall = self._stall.get(index, 0.0)
        if stall:
            self._count("stall")
        action = None
        if index in self._drop:
            action = "drop"
            self._count("drop")
        elif index in self._garble:
            action = "garble"
            self._count("garble")
        disconnect = index in self._disconnect
        if disconnect:
            self._count("disconnect")
        return action, stall, disconnect

    def server_should_disconnect(self, accepted_index: int) -> bool:
        """True when the connection carrying this frame should be cut."""
        doomed = accepted_index in self._server_disconnect
        if doomed:
            self._count("server_disconnect")
        return doomed

    @staticmethod
    def garble_bytes(payload: bytes, index: int) -> bytes:
        """Flip one deterministic bit of ``payload`` (position from index)."""
        if not payload:
            return payload
        corrupted = bytearray(payload)
        # Skew toward the tail so the flipped bit usually lands in the
        # CRC-covered body rather than the length prologue — a forged
        # length would be rejected before the frame even assembles.
        position = (index * 7919) % len(corrupted)
        corrupted[position] ^= 1 << (index % 8)
        return bytes(corrupted)

    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def __repr__(self) -> str:
        return (f"NetworkFaultInjector(drop={sorted(self._drop)}, "
                f"garble={sorted(self._garble)}, "
                f"stall={self._stall}, "
                f"disconnect={sorted(self._disconnect)}, "
                f"server_disconnect={sorted(self._server_disconnect)}, "
                f"injected={self.injected})")
