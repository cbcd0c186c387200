"""Inputs, timed cycles and correctness checks of the three workloads.

A *cycle* is one complete pass a user waits for:

* batch: records in memory -> ``fit`` -> ``materialize`` ->
  ``answer_workload`` over the whole query set;
* stream: a fresh collector and service -> open-loop segment -> closed-
  loop flood -> drained -> ``finalize`` -> ``materialize`` ->
  ``answer_workload``.

Each run prepares ``scenario.collections`` independent LDP collections
(fit seeds for batch, pre-encoded frame sets for stream) and cycle ``k``
replays collection ``k mod collections``, so a cycle that repeats a
collection must reproduce its answers and counts exactly. After each
timed cycle, one closed-loop caller makes a fixed mix of single
``answer`` calls against that cycle's model. Cycles repeat until
``--seconds`` have passed (at least one per collection); timings are
medians over cycles.
"""

from __future__ import annotations

import asyncio
import resource
import shutil
import tempfile
import time
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
import scenarios
from host import BUILD, calibration_s, ops_calibration_s, ops_slowdown
from host import reference_op, reference_scaled_ms, slowdown
from metrics import INJECTED_REASONS, median, percentile, tail_percentile_ok
from openloop import AdmissionTimes, lateness, open_loop
from scenarios import Scenario
from tracer import Tracer, covered_share, totals_by_name

#: each single call is made this many times back to back and the
#: fastest kept, so the first (cold) call and host interference within
#: one call do not reach the percentiles
SINGLE_REPEATS = 3
#: joint histograms up to this many cells answer exactly by contraction;
#: larger attribute sets fall back to per-row masks
HIST_CELLS = 1 << 22
SOURCE = "peer=bench"


class Report:
    """Checks, operation counts and metrics of one run."""

    def __init__(self) -> None:
        self.checks: List[Tuple[str, bool, str]] = []
        self.operations = 0
        self.failed_operations = 0
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.notes: Dict[str, object] = {}
        #: measured values before scaling to the reference host
        self.raw: Dict[str, float] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def metric(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (int(value)
                              if isinstance(value, (int, np.integer))
                              else float(value))
        self.samples[name] = int(samples)

    @property
    def attempted(self) -> int:
        return self.operations + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_operations + sum(not ok for _, ok, _ in
                                            self.checks)


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Frame:
    blob: bytes
    users: int
    reason: Optional[str] = None  # the injected pin mismatch, if any


@dataclass
class Inputs:
    dataset: object
    queries: list
    truth: np.ndarray
    collection_seeds: List[int]
    single_seed: int
    collector_seed: int
    frame_sets: List[List[Frame]] = field(default_factory=list)


def derive_seeds(seed: int, scenario: Scenario) -> Dict[str, object]:
    tag = zlib.crc32(scenario.name.encode())
    data, queries, single, collector, collections = np.random.SeedSequence(
        [seed, tag]).spawn(5)

    def word(ss):
        return int(ss.generate_state(1)[0])

    return {"data": word(data), "queries": word(queries),
            "single": word(single), "collector": word(collector),
            "collections": [word(c) for c in
                            collections.spawn(scenario.collections)]}


def make_queries(schema, scenario: Scenario, seed: int) -> list:
    from repro.queries.workload import WorkloadSpec, random_workload
    rng = np.random.default_rng(seed)
    queries = []
    for lam, count in scenario.query_mix:
        spec = WorkloadSpec(num_queries=count, dimension=lam,
                            selectivity=scenarios.SELECTIVITY)
        queries.extend(random_workload(schema, spec, rng=rng))
    return queries


def single_call_positions(queries: list, scenario: Scenario, seed: int,
                          cycle: int) -> np.ndarray:
    """Query positions the single-call caller visits after ``cycle``.

    ``scenario.single_mix`` fixes how many calls of each λ every slice
    makes (README: it keeps the median and the p99 inside one latency
    mode each); positions are drawn with replacement within each λ and
    visited in seeded random order.
    """
    rng = np.random.default_rng([seed, cycle])
    by_lambda: Dict[int, List[int]] = {}
    for pos, query in enumerate(queries):
        by_lambda.setdefault(len(query), []).append(pos)
    picks = np.concatenate([rng.choice(by_lambda[lam], size=count)
                            for lam, count in scenario.single_mix])
    rng.shuffle(picks)
    return picks


def exact_answers(records: np.ndarray, schema, queries: list) -> np.ndarray:
    """Exact fractional answers, computed independently of the program.

    Queries are grouped by attribute set; each group is answered from
    the exact joint histogram of its attributes (contracted with the
    predicates' 0/1 indicators), or from per-row masks when that
    histogram would be too large.
    """
    n = len(records)
    domains = [attr.domain_size for attr in schema]
    groups: Dict[Tuple[int, ...], List[Tuple[int, list]]] = {}
    for pos, query in enumerate(queries):
        preds = sorted(((schema.index_of(p.attribute), p) for p in query),
                       key=lambda item: item[0])
        key = tuple(t for t, _ in preds)
        indicators = [p.mask(np.arange(domains[t])) for t, p in preds]
        groups.setdefault(key, []).append((pos, indicators))
    out = np.empty(len(queries))
    for key, items in groups.items():
        dims = [domains[t] for t in key]
        positions = [pos for pos, _ in items]
        if int(np.prod(dims)) <= HIST_CELLS:
            flat = np.zeros(n, dtype=np.int64)
            for t, d in zip(key, dims):
                flat *= d
                flat += records[:, t]
            hist = np.bincount(flat, minlength=int(np.prod(dims)))
            table = hist.reshape(dims).astype(np.float64)
            w = np.stack([ind[0] for _, ind in items]).astype(np.float64)
            acc = np.einsum("qa,a...->q...", w, table)
            for axis in range(1, len(key)):
                w = np.stack([ind[axis] for _, ind in items]
                             ).astype(np.float64)
                acc = np.einsum("qa,qa...->q...", w, acc)
            out[positions] = acc / n
        else:
            for pos, indicators in items:
                mask = np.ones(n, dtype=bool)
                for t, ind in zip(key, indicators):
                    mask &= ind[records[:, t]]
                out[pos] = np.count_nonzero(mask) / n
    return out


def make_inputs(scenario: Scenario, seed: int) -> Inputs:
    from repro.data import normal_dataset
    seeds = derive_seeds(seed, scenario)
    dataset = normal_dataset(
        scenario.users, num_numerical=scenarios.NUM_NUMERICAL,
        num_categorical=scenarios.NUM_CATEGORICAL,
        numerical_domain=scenarios.NUMERICAL_DOMAIN,
        categorical_domain=scenarios.CATEGORICAL_DOMAIN, rng=seeds["data"])
    queries = make_queries(dataset.schema, scenario, seeds["queries"])
    truth = exact_answers(dataset.records, dataset.schema, queries)
    inputs = Inputs(dataset, queries, truth, seeds["collections"],
                    seeds["single"], seeds["collector"])
    if scenario.stream:
        plans = scenarios.new_collector(scenario, dataset.schema).plans
        inputs.frame_sets = [build_frames(scenario, dataset, plans, s)
                             for s in inputs.collection_seeds]
    return inputs


def build_frames(scenario: Scenario, dataset, plans,
                 seed: int) -> List[Frame]:
    """Pre-encode every user's report into wire frames (untimed).

    Users are assigned to grids uniformly, perturbed locally, packed
    ``USERS_PER_FRAME`` per frame and interleaved across grids; a seeded
    ``INJECTED_SHARE`` of extra frames carry a mismatched pin.
    """
    from repro.fo.adaptive import make_oracle
    from repro.wire import encode_report
    if any(plan.num_cells < 2 for plan in plans):
        raise RuntimeError("stream workload expects no single-cell grids")
    eps = scenario.epsilon
    per_frame = scenarios.USERS_PER_FRAME
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, len(plans), size=len(dataset.records))
    per_grid: List[List[Frame]] = []
    oracles = []
    for g, plan in enumerate(plans):
        oracle = make_oracle(plan.protocol, eps, plan.num_cells)
        oracles.append(oracle)
        values = plan.grid.encode(dataset.records[assignment == g])
        per_grid.append([
            Frame(encode_report(
                oracle.perturb(values[lo:lo + per_frame], rng),
                protocol=plan.protocol, epsilon=eps,
                num_cells=plan.num_cells, key=plan.key),
                len(values[lo:lo + per_frame]))
            for lo in range(0, len(values), per_frame)])
    honest: List[Frame] = []
    for i in range(max(len(f) for f in per_grid)):
        honest.extend(f[i] for f in per_grid if i < len(f))
    injected = int(round(scenarios.INJECTED_SHARE * len(honest)))
    slots = set(rng.choice(len(honest) + injected, size=injected,
                           replace=False).tolist())
    out: List[Frame] = []
    source = iter(honest)
    bad = 0
    for slot in range(len(honest) + injected):
        if slot not in slots:
            out.append(next(source))
            continue
        reason = INJECTED_REASONS[bad % len(INJECTED_REASONS)]
        bad += 1
        g = int(rng.integers(0, len(plans)))
        plan = plans[g]
        report = oracles[g].perturb(
            rng.integers(0, plan.num_cells, size=per_frame), rng)
        pin = dict(protocol=plan.protocol, epsilon=eps,
                   num_cells=plan.num_cells, key=plan.key)
        if reason == "pin-epsilon-mismatch":
            pin["epsilon"] = 2.0 * eps
        elif reason == "pin-cells-mismatch":
            pin["num_cells"] = plan.num_cells + 1
        else:
            pin["key"] = tuple(range(len(dataset.schema)))
        out.append(Frame(encode_report(report, **pin), per_frame, reason))
    return out


# ---------------------------------------------------------------------------
# cycles


@dataclass
class Cycle:
    time_to_answers_s: float
    collected_users: int
    collect_s: float
    answer_s: float
    materialize_s: float
    finalize_s: float
    answers: np.ndarray
    counts: Dict[str, int]
    model: object
    #: the (start, end) intervals time_to_answers_s adds up
    windows: List[Tuple[float, float]]
    admit_ms: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    open_window: Tuple[float, float] = (0.0, 0.0)
    service_stats: object = None
    #: (seconds, host slowdown) of the consecutive phases that make up
    #: time_to_answers_s, each bracketed by calibrations (see
    #: host.calibration_s; the answer pass by host.ops_calibration_s),
    #: and the slowdowns of the collection and answer phases
    phases: List[Tuple[float, float]] = field(default_factory=list)
    collect_slowdown: float = 1.0
    answer_slowdown: float = 1.0

    @property
    def scaled_time_to_answers_s(self) -> float:
        """time_to_answers_s at the reference host speed."""
        return sum(seconds / factor for seconds, factor in self.phases)


class _ConvergenceCount:
    """Records warnings during a cycle; counts ConvergenceWarnings.

    Nothing is filtered: every warning is recorded, convergence warnings
    are counted, and any other category is re-emitted afterwards.
    """

    def __enter__(self) -> "_ConvergenceCount":
        self._ctx = warnings.catch_warnings(record=True)
        self.records = self._ctx.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc) -> None:
        self._ctx.__exit__(*exc)
        from repro.errors import ConvergenceWarning
        self.convergence = sum(issubclass(w.category, ConvergenceWarning)
                               for w in self.records)
        for w in self.records:
            if not issubclass(w.category, ConvergenceWarning):
                warnings.warn_explicit(w.message, w.category, w.filename,
                                       w.lineno)


def answers_crc(answers: np.ndarray, crc: int = 0) -> int:
    return zlib.crc32(np.ascontiguousarray(answers, np.float64).tobytes(),
                      crc)


def batch_cycle(scenario: Scenario, inputs: Inputs, k: int) -> Cycle:
    seed = inputs.collection_seeds[k % scenario.collections]
    model = scenarios.construct(scenario, inputs.dataset.schema)
    # the host's speed moves within seconds, so each phase is bracketed
    # by its own calibrations (the answer pass by reference-operation
    # probes); they are excluded from the phase times
    cal = [calibration_s()]
    with _ConvergenceCount() as warned:
        t0 = time.perf_counter()
        model.fit(inputs.dataset, rng=seed)
        t1 = time.perf_counter()
        cal.append(calibration_s())
        t1b = time.perf_counter()
        model.materialize()
        t2 = time.perf_counter()
        cal.append(calibration_s())
        ops = [ops_calibration_s()]
        t2b = time.perf_counter()
        answers = model.answer_workload(inputs.queries)
        t3 = time.perf_counter()
    ops.append(ops_calibration_s())
    agg = model.aggregator
    timings = agg.timings.as_dict()
    counts = layers.program_counters(model.fit_diagnostics(),
                                     agg.exec_stats, len(agg.plans),
                                     warned.convergence)
    counts["client.users"] = int(agg.n)
    factors = [slowdown(a, b) for a, b in zip(cal, cal[1:])]
    factors.append(ops_slowdown(*ops))
    return Cycle(time_to_answers_s=(t1 - t0) + (t2 - t1b) + (t3 - t2b),
                 collected_users=scenario.users, collect_s=t1 - t0,
                 answer_s=t3 - t2b, materialize_s=timings["materialize"],
                 finalize_s=timings["estimate"] + timings["postprocess"],
                 answers=answers, counts=counts, model=model,
                 windows=[(t0, t1), (t1b, t2), (t2b, t3)],
                 phases=list(zip((t1 - t0, t2 - t1b, t3 - t2b), factors)),
                 collect_slowdown=factors[0], answer_slowdown=factors[2])


def stream_cycle(scenario: Scenario, inputs: Inputs, k: int,
                 checks: Optional[Report] = None) -> Cycle:
    """One stream cycle; ``checks`` receives the accounting and
    checkpoint-restore checks (run untimed, after the service stops)."""
    frames = inputs.frame_sets[k % scenario.collections]
    ckpt_root = BUILD / "tmp"
    ckpt_root.mkdir(parents=True, exist_ok=True)
    ckpt_dir = tempfile.mkdtemp(dir=ckpt_root)
    try:
        with _ConvergenceCount() as warned:
            cycle = asyncio.run(_stream_cycle(scenario, inputs, frames,
                                              ckpt_dir))
        cycle.counts.update(layers.program_counters(
            cycle.model.fit_diagnostics(), cycle.model.exec_stats,
            len(cycle.model.plans), warned.convergence))
        if checks is not None:
            _check_stream(checks, scenario, inputs, frames, cycle.model,
                          ckpt_dir)
        return cycle
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)


async def _stream_cycle(scenario: Scenario, inputs: Inputs,
                        frames: List[Frame], ckpt_dir: str) -> Cycle:
    blobs = [f.blob for f in frames]
    n_open = scenarios.OPEN_LOOP_FRAMES
    collector, service = scenarios.construct(
        scenario, inputs.dataset.schema,
        collector_seed=inputs.collector_seed, checkpoint_dir=ckpt_dir)
    admitted = AdmissionTimes(service.stats)
    await service.start()
    try:
        def submit(blob):
            return service.submit(blob, source=SOURCE)

        due, sent = await open_loop(submit, blobs[:n_open],
                                    scenarios.OPEN_LOOP_RATE)
        await admitted.wait_for(n_open)
        cal_flood = calibration_s()
        t_flood = time.perf_counter()
        for blob in blobs[n_open:]:
            await service.submit(blob, source=SOURCE)
        t_last = time.perf_counter()
        t_drained = await admitted.wait_for(len(blobs))
        # as in batch_cycle, each phase is bracketed by calibrations
        cal_drained = calibration_s()
        t_refresh = time.perf_counter()
        model = collector.finalize()
        t_final = time.perf_counter()
        model.materialize()
        t_mat = time.perf_counter()
        cal_mat = calibration_s()
        ops_mat = ops_calibration_s()
        t_answer = time.perf_counter()
        answers = model.answer_workload(inputs.queries)
        t_ans = time.perf_counter()
        ops_end = ops_calibration_s()
    finally:
        await service.stop()
    flood_users = sum(f.users for f in frames[n_open:] if f.reason is None)
    counts = layers.ingest_counters(collector.ingest_stats, service.stats)
    counts.update({
        "wire.frames": int(service.stats.frames_submitted),
        "wire.bytes": int(service.stats.bytes_received),
        "ingest.observed": int(collector.observed),
    })
    admit_ms = [(admitted.times[i] - due[i]) * 1e3 for i in range(n_open)]
    refresh = slowdown(cal_drained, cal_mat)
    answering = ops_slowdown(ops_mat, ops_end)
    phases = [(t_drained - t_last, refresh), (t_mat - t_refresh, refresh),
              (t_ans - t_answer, answering)]
    return Cycle(time_to_answers_s=sum(seconds for seconds, _ in phases),
                 collected_users=flood_users, collect_s=t_drained - t_flood,
                 answer_s=t_ans - t_answer, materialize_s=t_mat - t_final,
                 finalize_s=t_final - t_refresh,
                 answers=answers, counts=counts, model=model,
                 windows=[(t_last, t_drained), (t_refresh, t_mat),
                          (t_answer, t_ans)],
                 admit_ms=admit_ms,
                 lateness_ms=[x * 1e3 for x in lateness(due, sent)],
                 open_window=(due[0], admitted.times[n_open - 1]),
                 service_stats=service.stats,
                 phases=phases,
                 collect_slowdown=slowdown(cal_flood, cal_drained),
                 answer_slowdown=answering)


def _check_stream(report: Report, scenario: Scenario, inputs: Inputs,
                  frames: List[Frame], model, ckpt_dir: str) -> None:
    """Exact accounting, and the final checkpoint restores bit-identically."""
    from repro.service import latest_checkpoint, restore_checkpoint
    honest = sum(f.users for f in frames if f.reason is None)
    expected: Dict[str, int] = {}
    injected_users = 0
    for frame in frames:
        if frame.reason is not None:
            expected[frame.reason] = expected.get(frame.reason, 0) + 1
            injected_users += frame.users
    stats = model.ingest_stats.as_dict()
    report.check("stream.admitted_equals_honest", model.n == honest,
                 f"admitted={model.n} honest={honest}")
    report.check("stream.rejections_by_reason",
                 stats["reasons"] == expected,
                 f"rejected={stats['reasons']} injected={expected}")
    report.check("stream.rejected_users",
                 stats["dropped_users"] == injected_users,
                 f"dropped={stats['dropped_users']} "
                 f"injected={injected_users}")
    path = latest_checkpoint(ckpt_dir)
    if not report.check("stream.checkpoint_written", path is not None):
        return
    fresh = scenarios.new_collector(scenario, inputs.dataset.schema,
                                    inputs.collector_seed)
    restored = restore_checkpoint(fresh, path.read_bytes()).finalize()
    same = all(np.array_equal(
        restored.estimate_for(plan.key).frequencies,
        model.estimate_for(plan.key).frequencies) for plan in model.plans)
    report.check("stream.checkpoint_restores_bit_identical", same)


def single_calls(scenario: Scenario, inputs: Inputs, cycle: Cycle,
                 k: int) -> Tuple[List[float], List[float], int]:
    """One closed-loop caller: single ``answer`` calls, each timed.

    Each query is answered :data:`SINGLE_REPEATS` times back to back,
    every call followed by one :func:`host.reference_op` (one more runs
    before the first call); the query's time is its fastest call and
    its reference time the fastest reference operation around it.
    Returns both in seconds, and how many queries got an answer that
    differs from the cycle's own ``answer_workload`` result (bit for
    bit).
    """
    calls: List[float] = []
    references: List[float] = []
    mismatched = 0
    op = reference_op()
    clock = time.perf_counter
    with _ConvergenceCount():
        for pos in single_call_positions(inputs.queries, scenario,
                                         inputs.single_seed, k):
            query = inputs.queries[pos]
            t0 = clock()
            op()
            best_ref = clock() - t0
            best = float("inf")
            same = True
            for _ in range(SINGLE_REPEATS):
                t0 = clock()
                value = cycle.model.answer(query)
                t1 = clock()
                op()
                t2 = clock()
                best = min(best, t1 - t0)
                best_ref = min(best_ref, t2 - t1)
                same &= np.array_equal(np.float64(value), cycle.answers[pos])
            calls.append(best)
            references.append(best_ref)
            mismatched += not same
    return calls, references, mismatched


# ---------------------------------------------------------------------------
# the run


def run_cycles(scenario: Scenario, inputs: Inputs, seconds: float,
               report: Report, with_singles: bool) -> List[Cycle]:
    """Timed cycles for ``seconds`` (at least one per collection and
    ``scenario.min_cycles``)."""
    n_coll = scenario.collections
    least = max(n_coll, scenario.min_cycles)
    cycles: List[Cycle] = []
    latencies: List[float] = []
    mismatched = 0
    started = time.perf_counter()
    raw_latencies: List[float] = []
    while len(cycles) < least or time.perf_counter() - started < seconds:
        k = len(cycles)
        if scenario.stream:
            cycle = stream_cycle(scenario, inputs, k,
                                 report if k == 0 else None)
        else:
            cycle = batch_cycle(scenario, inputs, k)
        report.operations += len(inputs.queries)
        if scenario.stream:
            report.operations += len(inputs.frame_sets[k % n_coll])
        if with_singles:
            calls, refs, bad = single_calls(scenario, inputs, cycle, k)
            raw_latencies += [t * 1e3 for t in calls]
            latencies += [reference_scaled_ms(t, r)
                          for t, r in zip(calls, refs)]
            mismatched += bad
        cycle.model = None  # one fitted model alive at a time
        cycles.append(cycle)

    repeats = list(enumerate(cycles))[n_coll:]
    report.check("cycles.repeat_answers_bit_identical",
                 all(np.array_equal(c.answers, cycles[i % n_coll].answers)
                     for i, c in repeats))
    report.check("cycles.repeat_counts_identical",
                 all(c.counts == cycles[i % n_coll].counts
                     for i, c in repeats))
    maes = [float(np.mean(np.abs(c.answers - inputs.truth)))
            for c in cycles[:n_coll]]
    mae = float(np.mean(maes))
    report.metric("answer_mae", mae, n_coll * len(inputs.queries))
    report.check("answer_mae_within_gate", mae <= scenario.mae_gate,
                 f"mae={mae:.5f} gate={scenario.mae_gate}")
    crc = 0
    for c in cycles[:n_coll]:
        crc = answers_crc(c.answers, crc)
        for name, value in c.counts.items():
            report.counts[name] = report.counts.get(name, 0) + value
    report.counts["answers.crc32"] = crc
    report.notes["cycle_time_to_answers_s"] = [
        round(c.time_to_answers_s, 4) for c in cycles]
    report.notes["collection_mae"] = [round(m, 6) for m in maes]

    if with_singles:
        report.operations += len(latencies)
        report.failed_operations += mismatched
        report.check("single_calls_match_workload_bit_for_bit",
                     mismatched == 0,
                     f"{mismatched} of {len(latencies)} differ")
        report.check("query_p99_has_ten_samples_beyond",
                     tail_percentile_ok(len(latencies), 99),
                     f"{len(latencies)} samples")
        report.metric("query_p50_ms", percentile(latencies, 50),
                      len(latencies))
        report.metric("query_p99_ms", percentile(latencies, 99),
                      len(latencies))
        report.raw["query_p50_ms"] = percentile(raw_latencies, 50)
        report.raw["query_p99_ms"] = percentile(raw_latencies, 99)
    report.notes["cycle_phase_slowdowns"] = [
        [round(f, 3) for _, f in c.phases] for c in cycles]
    report.notes["cycle_finalize_materialize_answer_s"] = [
        [round(c.finalize_s, 3), round(c.materialize_s, 3),
         round(c.answer_s, 3)] for c in cycles]
    return cycles


def report_cycles(report: Report, inputs: Inputs,
                  cycles: List[Cycle]) -> None:
    """Medians over cycles, each cycle scaled to the reference host."""
    k = len(cycles)
    # one batch fit takes ~0.2 s, so collection is rated over all cycles'
    # collection time together rather than per cycle
    users = sum(c.collected_users for c in cycles)
    report.metric("collect_users_per_s", users / sum(
        c.collect_s / c.collect_slowdown for c in cycles), k)
    report.raw["collect_users_per_s"] = users / sum(c.collect_s
                                                    for c in cycles)
    report.metric("time_to_answers_s", median(
        [c.scaled_time_to_answers_s for c in cycles]), k)
    report.raw["time_to_answers_s"] = median(
        [c.time_to_answers_s for c in cycles])
    queries = len(inputs.queries)
    report.metric("answer_queries_per_s", median(
        [queries * c.answer_slowdown / c.answer_s for c in cycles]), k)
    report.raw["answer_queries_per_s"] = median(
        [queries / c.answer_s for c in cycles])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_cycle(report: Report, scenario: Scenario, inputs: Inputs,
                 cycles: List[Cycle]) -> Dict[str, float]:
    """One more cycle of collection 0 with every layer wrapped."""
    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        cycle = (stream_cycle if scenario.stream else batch_cycle)(
            scenario, inputs, 0)
    report.operations += len(inputs.queries)
    report.check("traced_cycle.answers_bit_identical",
                 np.array_equal(cycle.answers, cycles[0].answers))
    spans = tracer.spans
    out = layers.empty_per_layer()
    out.update(layers.span_metrics(spans, tracer.counts, cycle.windows))
    out.update({k: v for k, v in cycle.counts.items() if k in out})
    # both sides scaled to the reference host, like time_to_answers_s
    traced = cycle.scaled_time_to_answers_s
    untraced = median([c.scaled_time_to_answers_s for c in cycles])
    out["trace.time_to_answers_s"] = traced
    out["trace.untraced_time_to_answers_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    out["materialize_s"] = median([c.materialize_s for c in cycles])
    out["finalize_s"] = median([c.finalize_s for c in cycles])
    if scenario.stream:
        out["streaming.finalize_s"] = out["finalize_s"]
        admit = [x for c in cycles for x in c.admit_ms]
        late = [x for c in cycles for x in c.lateness_ms]
        out["admit_p50_ms"] = percentile(admit, 50)
        out["admit_p99_ms"] = percentile(admit, 99)
        out["service.generator_lateness_p99_ms"] = percentile(late, 99)
        out["service.queue_max"] = cycle.service_stats.queue_high_watermark
        consumer = [s for s in spans
                    if s.name in ("ingest", "merge", "checkpoint")]
        out["service.consumer_busy_share"] = covered_share(
            consumer, *cycle.open_window)
    report.counts.update({f"traced.{k}": int(out[k])
                          for k in layers.traced_count_names()})
    report.notes["top_self_s"] = sorted(
        ((name, round(row["self_s"], 4))
         for name, row in totals_by_name(spans).items()),
        key=lambda item: -item[1])[:8]
    return out
