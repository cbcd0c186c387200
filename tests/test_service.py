"""Ingestion service and checkpointing: backpressure, pins, kill+resume.

The headline property (chaos-marked): a streaming aggregator killed
mid-collection by an injected fault, restored from its last checkpoint,
and fed the remaining batches finalizes **bit-identical** estimates to an
uninterrupted run — not merely statistically close ones. That requires
the checkpoint to carry the merged-report monoid state, the admission
accounting, *and* the collector RNG's bit-generator state.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import FelipConfig, StreamingCollector
from repro.data import normal_dataset
from repro.errors import CheckpointError, IngestError, WireError
from repro.fo.adaptive import make_oracle
from repro.queries import Query, between
from repro.robustness import FaultInjector, PoisonedShardError
from repro.service import (
    IngestionService,
    checkpoint_meta,
    restore_checkpoint,
    save_checkpoint,
)
from repro.wire import encode_report

QUERY = Query([between("num_0", 4, 20)])


@pytest.fixture(scope="module")
def dataset():
    return normal_dataset(4_000, num_numerical=2, num_categorical=1,
                          numerical_domain=32, categorical_domain=4,
                          rng=17)


def make_collector(dataset, mode="quarantine", seed=99, **kw):
    config = FelipConfig(epsilon=1.0, ingest_policy=mode, **kw)
    return StreamingCollector(dataset.schema, config, dataset.n,
                              rng=seed)


def wire_frames(collector, users=40, seed=1, epsilon=None):
    """One honest frame per planned (non-trivial) grid."""
    rng = np.random.default_rng(seed)
    epsilon = collector.config.epsilon if epsilon is None else epsilon
    frames = []
    for plan in collector.plans:
        if plan.num_cells < 2:
            continue
        oracle = make_oracle(plan.protocol, epsilon, plan.num_cells)
        report = oracle.perturb(
            rng.integers(0, plan.num_cells, size=users), rng)
        frames.append(encode_report(report, protocol=plan.protocol,
                                    epsilon=epsilon,
                                    num_cells=plan.num_cells,
                                    key=plan.key))
    return frames


class TestIngestionService:
    def test_ingests_frames_and_finalizes(self, dataset):
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector, compact_every=4)
            async with service:
                for round_seed in range(3):
                    for frame in wire_frames(collector, seed=round_seed):
                        assert await service.submit(
                            frame, source="peer=10.0.0.1:4242")
            return collector, service

        collector, service = asyncio.run(run())
        assert service.stats.frames_accepted == \
            service.stats.frames_submitted
        assert service.stats.users_accepted == collector.observed
        assert service.stats.compactions > 0
        assert collector.finalize().n == collector.observed
        assert service.stats.latency_summary()["p99_ms"] >= 0.0

    def test_backpressure_bounds_the_queue(self, dataset):
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector, max_pending=2,
                                       batch_size=2)
            async with service:
                for _ in range(10):
                    for frame in wire_frames(collector, users=10):
                        await service.submit(frame)
            return service

        service = asyncio.run(run())
        assert service.stats.queue_high_watermark <= 2
        assert service.stats.frames_accepted == \
            service.stats.frames_submitted

    def test_pin_mismatch_is_quarantined_against_the_peer(self, dataset):
        async def run():
            collector = make_collector(dataset)
            async with IngestionService(collector) as service:
                forged = wire_frames(collector, users=10, epsilon=2.0)[0]
                await service.submit(forged, source="peer=evil:1")
            return collector, service

        collector, service = asyncio.run(run())
        assert service.stats.frames_rejected == 1
        stats = collector.ingest_stats.as_dict()
        assert stats["reasons"] == {"pin-epsilon-mismatch": 1}
        assert stats["rejected_by_source"] == {"peer=evil:1": 1}
        assert collector.ingest_stats.quarantine[0]["source"] == \
            "peer=evil:1"
        assert collector.observed == 0

    def test_malformed_bytes_counted_not_fatal(self, dataset):
        async def run():
            collector = make_collector(dataset)
            async with IngestionService(collector) as service:
                assert not await service.submit(b"\x00" * 64,
                                                source="peer=evil:2")
                for frame in wire_frames(collector):
                    await service.submit(frame)
            return collector, service

        collector, service = asyncio.run(run())
        assert service.stats.malformed_frames == 1
        assert "malformed-frame" in collector.ingest_stats.reasons
        assert collector.observed > 0

    def test_strict_mode_fails_the_collection(self, dataset):
        async def run():
            collector = make_collector(dataset, mode="strict")
            service = IngestionService(collector)
            await service.start()
            with pytest.raises(WireError):
                await service.submit(b"junk" * 16)  # malformed: immediate
            forged = wire_frames(collector, epsilon=3.0)[0]
            await service.submit(forged)  # pin mismatch: fails consumer
            with pytest.raises(IngestError):
                await service.stop()
            return collector

        collector = asyncio.run(run())
        assert collector.observed == 0

    def test_socket_stream_with_per_peer_attribution(self, dataset):
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector)
            await service.start()
            server = await service.serve(port=0)
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            stream = b"".join(wire_frames(collector))
            for i in range(0, len(stream), 333):  # odd-sized chunks
                writer.write(stream[i:i + 333])
                await writer.drain()
            writer.close()
            await writer.wait_closed()
            for _ in range(500):
                if service.stats.frames_accepted * \
                        40 >= collector.observed and collector.observed:
                    break
                await asyncio.sleep(0.01)
            server.close()
            await server.wait_closed()
            await service.stop()
            return collector, service

        collector, service = asyncio.run(run())
        assert service.stats.frames_accepted >= 1
        assert collector.observed == service.stats.users_accepted
        assert collector.finalize().n == collector.observed


class TestCheckpoint:
    def test_resume_is_bit_identical_serial(self, dataset):
        batches = [dataset.records[i::4] for i in range(4)]
        uninterrupted = make_collector(dataset)
        for batch in batches:
            uninterrupted.observe(batch)
        expected = uninterrupted.finalize().answer(QUERY)

        victim = make_collector(dataset)
        victim.observe(batches[0])
        victim.observe(batches[1])
        blob = save_checkpoint(victim)

        resumed = restore_checkpoint(make_collector(dataset), blob)
        resumed.observe(batches[2])
        resumed.observe(batches[3])
        assert resumed.finalize().answer(QUERY) == expected

    def test_checkpoint_carries_accounting_and_meta(self, dataset):
        collector = make_collector(dataset)
        collector.observe(dataset.records[:1_000])
        blob = save_checkpoint(collector)
        meta = checkpoint_meta(blob)
        assert meta["observed"] == collector.observed
        assert meta["fingerprint"]["epsilon"] == 1.0

        resumed = restore_checkpoint(make_collector(dataset), blob)
        assert resumed.observed == collector.observed
        assert resumed.ingest_stats.accepted_users == \
            collector.ingest_stats.accepted_users
        assert np.array_equal(resumed._group_sizes,
                              collector._group_sizes)

    def test_corruption_and_misuse_rejected(self, dataset):
        collector = make_collector(dataset)
        collector.observe(dataset.records[:500])
        blob = save_checkpoint(collector)

        corrupt = bytearray(blob)
        corrupt[len(corrupt) // 2] ^= 0x40
        with pytest.raises(CheckpointError):
            restore_checkpoint(make_collector(dataset), bytes(corrupt))
        with pytest.raises(CheckpointError, match="truncated"):
            restore_checkpoint(make_collector(dataset), blob[:10])

        dirty = make_collector(dataset)
        dirty.observe(dataset.records[:100])
        with pytest.raises(CheckpointError, match="fresh"):
            restore_checkpoint(dirty, blob)

        other_config = make_collector(dataset, mode="drop")
        with pytest.raises(CheckpointError, match="fingerprint"):
            restore_checkpoint(other_config, blob)


@pytest.mark.faults
class TestKillAndResume:
    def test_chaos_killed_aggregator_resumes_bit_identical(self, dataset):
        """FaultInjector poisons the victim mid-batch; the restored
        collector replays the tail and matches the uninterrupted run."""
        kwargs = dict(workers=2, chunk_size=256)
        batches = [dataset.records[i::4] for i in range(4)]

        uninterrupted = make_collector(dataset, **kwargs)
        for batch in batches:
            uninterrupted.observe(batch)
        expected = uninterrupted.finalize().answer(QUERY)

        victim = make_collector(dataset, **kwargs)
        victim.observe(batches[0])
        victim.observe(batches[1])
        blob = save_checkpoint(victim)
        victim.fault_injector = FaultInjector(poison=[0])
        with pytest.raises(PoisonedShardError):
            victim.observe(batches[2])  # the "crash"

        resumed = restore_checkpoint(make_collector(dataset, **kwargs),
                                     blob)
        resumed.observe(batches[2])
        resumed.observe(batches[3])
        aggregator = resumed.finalize()
        assert aggregator.answer(QUERY) == expected
        assert aggregator.n == uninterrupted.observed
