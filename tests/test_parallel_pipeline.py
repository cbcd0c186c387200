"""Tests for the sharded parallel collection pipeline.

Covers the determinism contract (serial ≡ sharded bit-for-bit under a
fixed seed; output invariant to ``workers``), the executor plumbing
through ``Aggregator``/``Felip``/``StreamingCollector``, the stage
timers, and the satellite regressions: SUE/SHE/THE streaming, the
budget×AHEAD config rejection, and the streaming oracle cache.
"""

import os

import numpy as np
import pytest

from repro import Felip, FelipConfig
from repro.core import StreamingCollector, partition_users, plan_grids
from repro.core.client import (
    collect_reports,
    collect_reports_budget_split,
    collect_reports_serial,
)
from repro.core.parallel import (
    chunk_bounds,
    group_orders,
    resolve_workers,
    run_sharded,
)
from repro.data import normal_dataset
from repro.errors import ConfigurationError, ProtocolError
from repro.queries import Query, between
from repro.rng import ensure_rng

ALL_PROTOCOLS = ("grr", "olh", "oue", "sue", "she", "the", "sw", "hr")


def config_for(protocol, epsilon=1.0):
    """A FelipConfig pinning one protocol (1-D-only backends via the
    one_d_protocol knob, everything else via the candidate tuple)."""
    if protocol == "sw":
        return FelipConfig(epsilon=epsilon, one_d_protocol="sw")
    return FelipConfig(epsilon=epsilon, protocols=(protocol,))


@pytest.fixture(scope="module")
def dataset():
    return normal_dataset(20_000, num_numerical=2, num_categorical=1,
                          numerical_domain=32, categorical_domain=4,
                          rng=1)


def assert_same_reports(actual, expected):
    """Bit-for-bit equality of two GroupReport lists."""
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.planned.key == e.planned.key
        assert a.group_size == e.group_size
        if e.report is None:
            assert a.report is None
            continue
        assert type(a.report) is type(e.report)
        for name in vars(e.report):
            av, ev = getattr(a.report, name), getattr(e.report, name)
            if isinstance(ev, np.ndarray):
                np.testing.assert_array_equal(av, ev, err_msg=name)
            else:
                assert av == ev, name


def planned_collection(dataset, config, seed=11):
    plans = plan_grids(dataset.schema, config, dataset.n)
    assignment = partition_users(dataset.n, len(plans), ensure_rng(seed))
    return plans, assignment


class TestSerialEquivalence:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_sharded_bit_identical_to_serial(self, dataset, workers):
        """chunk_size=None: sharded ≡ serial, any workers."""
        config = FelipConfig(epsilon=1.0)
        plans, assignment = planned_collection(dataset, config)
        serial = collect_reports_serial(
            dataset.records, assignment, plans, config.epsilon, rng=23)
        sharded = collect_reports(
            dataset.records, assignment, plans, config.epsilon, rng=23,
            workers=workers, chunk_size=None)
        assert_same_reports(sharded, serial)

    def test_chunked_output_invariant_to_workers_and_backend(self, dataset):
        """Finite chunk_size: a new stream, but invariant to the worker
        count (inline and thread-pool execution alike)."""
        config = FelipConfig(epsilon=1.0)
        plans, assignment = planned_collection(dataset, config)
        runs = [collect_reports(dataset.records, assignment, plans,
                                config.epsilon, rng=29, workers=w,
                                chunk_size=1_000)
                for w in (1, 2, 4)]
        for run in runs[1:]:
            assert_same_reports(run, runs[0])

    def test_budget_split_invariant_to_workers(self, dataset):
        config = FelipConfig(epsilon=1.0, partition_mode="budget")
        plans = plan_grids(dataset.schema, config, dataset.n)
        runs = [collect_reports_budget_split(
                    dataset.records, plans, config.epsilon, rng=31,
                    workers=w, chunk_size=2_500)
                for w in (1, 4)]
        assert_same_reports(runs[1], runs[0])

    def test_full_fit_identical_across_workers_and_backends(self, dataset):
        """End-to-end: answers are a pure function of the seed — identical
        across inline and thread-pool executions."""
        q = Query([between("num_0", 5, 20), between("num_1", 5, 20)])
        answers, marginals = [], []
        for workers in (1, 2, 4):
            model = Felip(dataset.schema,
                          FelipConfig(epsilon=1.0, workers=workers))
            model.fit(dataset, rng=37)
            answers.append(model.answer(q))
            marginals.append(model.marginal("num_0"))
        assert all(a == answers[0] for a in answers[1:])
        for m in marginals[1:]:
            np.testing.assert_array_equal(m, marginals[0])

    def test_streaming_invariant_to_worker_count_and_backend(self, dataset):
        """Streaming output is independent of the worker count, including
        workers=1 (which runs the same sharded path inline)."""
        q = Query([between("num_0", 5, 20)])
        answers = []
        for workers in (1, 2, 4):
            collector = StreamingCollector(
                dataset.schema,
                FelipConfig(epsilon=1.0, workers=workers),
                expected_users=dataset.n, rng=41)
            for start in range(0, dataset.n, 5_000):
                collector.observe(dataset.records[start:start + 5_000])
            answers.append(collector.finalize().answer(q))
        assert all(a == answers[0] for a in answers[1:])


class TestWorkerResolution:
    def test_resolve_workers_respects_cpu_affinity(self, monkeypatch):
        """resolve_workers(0) must see the *schedulable* CPUs, not the
        machine total: in a cgroup-pinned container os.cpu_count() lies."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers(0) == 3

    def test_resolve_workers_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_workers(0) == 5

    def test_resolve_workers_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(0) == 1


class TestExecutorPlumbing:
    def test_stage_timings_recorded(self, dataset):
        model = Felip(dataset.schema, FelipConfig(epsilon=1.0, workers=2))
        assert model.aggregator.timings.as_dict() == {}
        model.fit(dataset, rng=43)
        seconds = model.aggregator.timings.as_dict()
        assert set(seconds) == {"plan", "warm", "collect", "estimate",
                                "postprocess"}
        assert all(v >= 0.0 for v in seconds.values())
        assert "collect" in repr(model.aggregator.timings)

    def test_config_validates_executor_knobs(self):
        assert FelipConfig(workers=0).workers == 0
        with pytest.raises(ConfigurationError):
            FelipConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            FelipConfig(chunk_size=0)
        with pytest.raises(TypeError):
            FelipConfig(backend="thread")  # one executor: no backend knob

    def test_run_sharded_preserves_task_order(self):
        tasks = [(lambda i=i: i * i) for i in range(50)]
        assert run_sharded(tasks, 4) == [i * i for i in range(50)]
        assert run_sharded(tasks, 1) == [i * i for i in range(50)]
        assert run_sharded([], 4) == []

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)

    def test_group_orders_matches_flatnonzero(self):
        rng = ensure_rng(5)
        assignment = rng.integers(0, 7, size=10_000)
        order, offsets = group_orders(assignment, 7)
        for g in range(7):
            np.testing.assert_array_equal(
                order[offsets[g]:offsets[g + 1]],
                np.flatnonzero(assignment == g))

    def test_chunk_bounds_geometry(self):
        assert chunk_bounds(10, None) == [(0, 10)]
        assert chunk_bounds(10, 100) == [(0, 10)]
        assert chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert chunk_bounds(0, 4) == []
        with pytest.raises(ConfigurationError):
            chunk_bounds(10, 0)

    def test_ahead_runs_through_sharded_executor(self, dataset):
        model = Felip(dataset.schema,
                      FelipConfig(epsilon=1.0, one_d_protocol="ahead",
                                  workers=4))
        model.fit(dataset, rng=47)
        q = Query([between("num_0", 5, 20)])
        assert 0.0 <= model.answer(q) <= 1.0


class TestSatelliteRegressions:
    @pytest.mark.parametrize("protocol", ["sue", "she", "the"])
    def test_streaming_supports_histogram_protocols(self, dataset,
                                                    protocol):
        """Regression: SUE/SHE/THE reports must merge across batches
        (pre-fix this died with a ProtocolError at finalize)."""
        collector = StreamingCollector(
            dataset.schema,
            FelipConfig(epsilon=1.0, protocols=(protocol,)),
            expected_users=dataset.n, rng=53)
        for start in range(0, dataset.n, 5_000):
            collector.observe(dataset.records[start:start + 5_000])
        q = Query([between("num_0", 5, 20)])
        assert np.isfinite(collector.finalize().answer(q))

    def test_unmergeable_streaming_config_rejected_at_init(self, dataset):
        """AHEAD is rejected when the collector is built, not at
        finalize time, with a message naming the restriction."""
        with pytest.raises(ConfigurationError, match="AHEAD|stream"):
            StreamingCollector(
                dataset.schema,
                FelipConfig(epsilon=1.0, one_d_protocol="ahead"),
                expected_users=dataset.n)

    def test_budget_mode_rejects_ahead_at_config_time(self):
        """Regression: budget splitting + AHEAD used to die deep inside
        collection; now the config itself explains the conflict."""
        with pytest.raises(ConfigurationError,
                           match="budget.*ahead|ahead.*budget"):
            FelipConfig(partition_mode="budget", one_d_protocol="ahead")

    def test_budget_split_collector_rejects_ahead_plans(self, dataset):
        config = FelipConfig(epsilon=1.0, one_d_protocol="ahead")
        plans = plan_grids(dataset.schema, config, dataset.n)
        with pytest.raises(ProtocolError, match="AHEAD"):
            collect_reports_budget_split(dataset.records, plans,
                                         config.epsilon, rng=3)

    def test_streaming_builds_oracles_once(self, dataset, monkeypatch):
        """Regression: observe() used to rebuild every oracle per batch
        (for THE that re-ran its threshold optimization each time)."""
        import repro.core.streaming as streaming_module
        calls = []
        real_make_oracle = streaming_module.make_oracle
        monkeypatch.setattr(
            streaming_module, "make_oracle",
            lambda *a, **kw: calls.append(a) or real_make_oracle(*a, **kw))
        collector = StreamingCollector(
            dataset.schema, FelipConfig(epsilon=1.0),
            expected_users=dataset.n, rng=59)
        built_at_init = len(calls)
        assert built_at_init == len(collector.plans)
        for start in range(0, 15_000, 5_000):
            collector.observe(dataset.records[start:start + 5_000])
        assert len(calls) == built_at_init


class TestStreamingOneShotEquivalence:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_streaming_matches_one_shot(self, dataset, protocol):
        """Streamed batches and one-shot collection estimate the same
        distribution, for every mergeable protocol."""
        config = config_for(protocol, epsilon=4.0)
        q = Query([between("num_0", 5, 20)])
        truth = q.true_answer(dataset)

        one_shot = Felip(dataset.schema, config).fit(dataset, rng=61)
        collector = StreamingCollector(dataset.schema, config,
                                       expected_users=dataset.n, rng=61)
        for start in range(0, dataset.n, 4_000):
            collector.observe(dataset.records[start:start + 4_000])
        streamed = collector.finalize()

        assert one_shot.answer(q) == pytest.approx(truth, abs=0.12)
        assert streamed.answer(q) == pytest.approx(truth, abs=0.12)
        assert streamed.answer(q) == pytest.approx(one_shot.answer(q),
                                                   abs=0.15)
