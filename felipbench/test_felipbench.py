"""Tests of the benchmark's own arithmetic and contract.

Run from the repository root: ``python3 -m pytest felipbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading

import numpy as np
import pytest

import host
import metrics
from openloop import AdmissionTimes, lateness, open_loop
from tracer import Span, Tracer, covered_share, self_times, totals_by_name
from tracer import union_length

sys.path.insert(0, str(host.SRC))


# -- spans ---------------------------------------------------------------------


def _span(sid, name, start, end, parent=None):
    return Span(name, start, end, parent=parent, sid=sid)


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=1),   # overlaps a (two threads)
        _span(4, "c", 9.0, 12.0, parent=1),  # runs past its parent
        _span(5, "leaf", 1.5, 2.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - (5 + 1))  # [1,6] and [9,10]
    assert selfs[2] == pytest.approx(3 - 0.5)
    assert selfs[3] == pytest.approx(3)
    assert selfs[5] == pytest.approx(0.5)
    totals = totals_by_name(spans)
    assert totals["root"]["calls"] == 1
    assert totals["a"]["self_s"] == pytest.approx(2.5)


def test_covered_share_of_window():
    spans = [_span(1, "x", 0, 2), _span(2, "y", 1, 3), _span(3, "z", 8, 12)]
    assert covered_share(spans, 0, 10) == pytest.approx(0.5)
    assert covered_share(spans, 5, 5) == 0.0


def test_wrap_records_spans_restores_attributes_and_parents_threads():
    class Layer:
        @staticmethod
        def work(x):
            return x + 1

    namespace = {"fn": lambda: 7}
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original = Layer.__dict__["work"]
    with tracer:
        tracer.wrap(Layer, "work", "work",
                    counter=lambda t, args, kw, res: t.count("seen", res))
        tracer.wrap(namespace, "fn", None,
                    counter=lambda t, args, kw, res: t.count("fn", 1))
        with tracer.span("outer"):
            assert Layer.work(1) == 2
            worker = threading.Thread(target=Layer.work, args=(5,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert namespace["fn"]() == 7
    assert Layer.__dict__["work"] is original
    assert tracer.counts == {"seen": 8, "fn": 1}
    outer = next(s for s in tracer.spans if s.name == "outer")
    works = [s for s in tracer.spans if s.name == "work"]
    assert len(works) == 2
    assert all(s.parent == outer.sid for s in works)
    assert len({s.thread for s in works}) == 2


# -- statistics ------------------------------------------------------------------


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(3)
    values = rng.exponential(size=101).tolist()
    for q in (0, 1, 50, 90, 99, 100):
        assert metrics.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)))
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert metrics.median([5.0]) == 5.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)
    with pytest.raises(ValueError):
        metrics.percentile([1.0], 101)


def test_tail_percentile_needs_ten_samples_beyond():
    assert metrics.tail_percentile_ok(1000, 99)
    assert not metrics.tail_percentile_ok(999, 99)
    assert metrics.tail_percentile_ok(20, 50)


# -- open loop -------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    async def sleep(self, seconds):
        self.now += seconds


def test_open_loop_keeps_schedule_and_reports_lateness():
    clock = FakeClock()
    costs = [0.0, 0.28, 0.0, 0.0, 0.0]  # frame 1 stalls the sender

    async def submit(frame):
        clock.now += costs[frame]

    due, sent = asyncio.run(open_loop(submit, list(range(5)), rate=10.0,
                                      clock=clock, sleep=clock.sleep,
                                      lead=0.0))
    assert due == pytest.approx([100.0, 100.1, 100.2, 100.3, 100.4])
    late = lateness(due, sent)
    # frames 2 and 3 were due during the stall and go out at once;
    # frame 4 is on time again: the schedule never shifts.
    assert late == pytest.approx([0.0, 0.0, 0.18, 0.08, 0.0])
    with pytest.raises(ValueError):
        asyncio.run(open_loop(submit, [0], rate=0.0))


def test_admission_times_wait_for_fifo_count():
    class Stats:
        def __init__(self):
            self.latencies = []

        def record_latency(self, seconds):
            self.latencies.append(seconds)

    clock = FakeClock()

    async def scenario():
        stats = Stats()
        admitted = AdmissionTimes(stats, clock=clock)

        async def consumer():
            for _ in range(3):
                await asyncio.sleep(0)
                clock.now += 1.0
                stats.record_latency(0.5)

        task = asyncio.create_task(consumer())
        last = await admitted.wait_for(3)
        await task
        return stats, admitted, last

    stats, admitted, last = asyncio.run(scenario())
    assert stats.latencies == [0.5, 0.5, 0.5]
    assert admitted.times == [101.0, 102.0, 103.0]
    assert last == 103.0


# -- contract ------------------------------------------------------------------------


def _benchmark_json():
    return json.loads((host.ROOT / "BENCHMARK.json").read_text())


def test_every_metric_name_matches_grammar_and_is_declared():
    spec = _benchmark_json()
    declared_e2e = {m["name"]: m for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m for m in spec["per_layer"]}
    for name, unit, better in metrics.END_TO_END:
        assert metrics.NAME_RE.match(name), name
        assert metrics.UNIT_RE.match(unit), unit
        assert declared_e2e[name]["unit"] == unit
        assert declared_e2e[name]["better"] == better
    for name, unit, better in metrics.PER_LAYER:
        assert metrics.NAME_RE.match(name), name
        assert metrics.UNIT_RE.match(unit), unit
        assert declared_layer[name]["unit"] == unit
        assert declared_layer[name]["better"] == better
    assert set(declared_e2e) == {n for n, _, _ in metrics.END_TO_END}
    assert set(declared_layer) == {n for n, _, _ in metrics.PER_LAYER}


def test_benchmark_json_shape():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    import scenarios
    assert [w["name"] for w in spec["workloads"]] == list(
        scenarios.SCENARIOS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = ([m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]]
             + [w["name"] for w in spec["workloads"]])
    assert len(names) == len(set(names))


# -- ground truth ------------------------------------------------------------------------


def test_exact_answers_match_row_by_row_count():
    import scenarios
    import workloads
    from repro.data import normal_dataset

    data = normal_dataset(3000, num_numerical=4, num_categorical=2,
                          numerical_domain=64, categorical_domain=8, rng=4)
    mix = scenarios.Scenario(
        name="t", users=3000, epsilon=1.0, workers=1, chunk_size=None,
        query_mix=((1, 5), (2, 5), (3, 5), (4, 5)), single_mix=((1, 1),),
        collections=1, mae_gate=1.0)
    queries = workloads.make_queries(data.schema, mix, seed=9)
    saved = workloads.HIST_CELLS
    try:
        for cells in (saved, 1):  # histogram path, then per-row masks
            workloads.HIST_CELLS = cells
            got = workloads.exact_answers(data.records, data.schema, queries)
            want = [q.true_answer(data) for q in queries]
            assert np.allclose(got, want, rtol=0, atol=1e-12)
    finally:
        workloads.HIST_CELLS = saved


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_result_line_names_only_declared_metrics(trace, capsys):
    import run
    import workloads

    report = workloads.Report()
    names = ([n for n, _, _ in metrics.PER_LAYER] if trace
             else [n for n, _, _ in metrics.END_TO_END])
    for i, name in enumerate(names):
        report.metric(name, i + 0.5, 3)
    report.check("always", True)
    assert run.emit(report, trace) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert metrics.NAME_RE.match(name)
        assert entry == {"value": names.index(name) + 0.5,
                         "unit": declared[name]}
    assert all(line.startswith("# ") for line in lines[:-1])


def test_reference_scaling_divides_out_the_host_speed():
    # a call that took as long as the reference op takes REFERENCE_OP_S
    assert host.reference_scaled_ms(3e-5, 3e-5) == pytest.approx(
        host.REFERENCE_OP_S * 1e3)
    # twice as slow a host doubles both times and changes nothing
    assert host.reference_scaled_ms(8e-5, 2e-5) == pytest.approx(
        host.reference_scaled_ms(4e-5, 1e-5))
    op = host.reference_op()
    assert op() == op()