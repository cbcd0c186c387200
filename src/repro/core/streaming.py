"""Streaming collection: users arrive in batches over time.

The paper's conclusion points at answering queries over data streams as an
extension. This module provides the natural architecture for it: grids are
planned once (from an expected population size), each *arriving* user is
assigned a group and reports immediately with the full budget ε, and the
aggregator can be finalized at any point — estimates simply sharpen as
more users arrive. Each user still reports exactly once, so the privacy
guarantee is unchanged.

Cross-batch accumulation rides on :func:`repro.core.merge.merge_reports`
(shared with the sharded batch executor), so any protocol whose registry
spec is flagged ``streamable`` — every built-in except AHEAD — streams;
configurations that cannot (AHEAD's interactive refinement) are rejected
at construction, not at :meth:`StreamingCollector.finalize`.

Streams are the natural untrusted-ingestion surface — reports arrive from
clients over time — so every report is admitted through the configured
:class:`repro.robustness.IngestPolicy` before it is accumulated, whether
it was perturbed locally (:meth:`StreamingCollector.observe`) or received
from the wire (:meth:`StreamingCollector.ingest_report`). The sharded
per-batch path inherits the executor's retry-with-backoff fault
tolerance; accounting flows into the finalized aggregator's
``robustness_report()``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.client import GroupReport, perturb_tasks
from repro.core.config import FelipConfig
from repro.core.merge import merge_reports, mergeable_protocol
from repro.core.parallel import ExecutionStats, run_sharded
from repro.core.planner import PlannedGrid, plan_grids
from repro.core.server import Aggregator
from repro.errors import ConfigurationError, ProtocolError
from repro.fo.adaptive import make_oracle
from repro.fo.registry import get as protocol_spec
from repro.rng import RngLike, ensure_rng, spawn
from repro.robustness.policy import (
    IngestPolicy,
    IngestStats,
    ReportSpec,
    report_user_count,
    sanitize_report,
)
from repro.schema import Schema

__all__ = ["StreamingCollector", "merge_reports"]


class StreamingCollector:
    """Accumulates ε-LDP reports batch by batch.

    Parameters
    ----------
    schema, config:
        As for :class:`~repro.core.Aggregator`. ``config.workers`` widens
        the per-batch perturbation across groups and
        ``config.chunk_size`` splits each group into shards; every shard
        draws from its own spawned stream, so outputs are a pure function
        of ``(seed, chunk_size)`` whatever the worker count.
    expected_users:
        The planner's prior on the eventual population size — grid sizes
        are fixed up front (users must know their grid before reporting),
        so size them for the population you expect to see.

    Example
    -------
    >>> collector = StreamingCollector(schema, FelipConfig(), 100_000)
    >>> for batch in batches:                      # doctest: +SKIP
    ...     collector.observe(batch)
    >>> model = collector.finalize()               # doctest: +SKIP
    >>> model.answer(query)                        # doctest: +SKIP
    """

    def __init__(self, schema: Schema, config: FelipConfig,
                 expected_users: int, rng: RngLike = None):
        if expected_users < 1:
            raise ConfigurationError(
                f"expected_users must be >= 1, got {expected_users}")
        if config.partition_mode != "users":
            raise ConfigurationError(
                "streaming collection requires partition_mode='users'")
        if config.one_d_protocol is not None and \
                not protocol_spec(config.one_d_protocol).streamable:
            raise ConfigurationError(
                f"one_d_protocol={config.one_d_protocol!r} needs the "
                f"whole group at once and cannot run over a stream; use "
                f"a streamable 1-D backend or None")
        self.schema = schema
        self.config = config
        self.plans: List[PlannedGrid] = plan_grids(schema, config,
                                                   expected_users)
        unmergeable = [p.key for p in self.plans
                       if not mergeable_protocol(p.protocol)]
        if unmergeable:
            raise ConfigurationError(
                f"grids {unmergeable} plan protocols whose reports cannot "
                f"be merged across batches; streaming requires mergeable "
                f"report types")
        self._rng = ensure_rng(rng)
        # One oracle per plan, built once: oracles are immutable
        # (epsilon, domain) machines, so rebuilding them per batch was
        # pure overhead — for THE it even re-ran the numerical
        # threshold optimization on every observe() call.
        self._oracles = {
            p.key: make_oracle(p.protocol, config.epsilon, p.num_cells)
            for p in self.plans if p.num_cells >= 2}
        self._batches: Dict[Tuple[int, ...], List[object]] = {
            p.key: [] for p in self.plans}
        self._group_sizes = np.zeros(len(self.plans), dtype=np.int64)
        self.observed = 0
        #: users admitted without a report: members of trivial single-cell
        #: grids, whose frequency vector is known a priori. They never pass
        #: a sanitizer, so finalize()'s accounting invariant counts them
        #: separately from ``ingest_stats.accepted_users``.
        self.trusted_users = 0
        #: ingestion admission control shared by observe()/ingest_report()
        self.ingest_policy = IngestPolicy(mode=config.ingest_policy)
        self.ingest_stats = IngestStats()
        self.exec_stats = ExecutionStats()
        #: chaos-test hook for the sharded per-batch path (None in prod)
        self.fault_injector = None
        self._specs = {key: ReportSpec.from_oracle(oracle)
                       for key, oracle in self._oracles.items()}
        self._group_of = {p.key: g for g, p in enumerate(self.plans)}

    def observe(self, records: np.ndarray, rng: RngLike = None) -> int:
        """Ingest one batch of arriving users (``(b, k)`` code matrix).

        Each user is assigned a uniformly random group on arrival and
        reports once; group sizes balance in expectation.

        Only *admitted* users count: a report the ingestion policy drops
        or quarantines contributes nothing to ``observed`` or to its
        group's size, so ``finalize()``'s ``aggregator.n`` is exactly the
        population the accumulated reports describe. (Before this held,
        every dropped report still inflated ``n`` and biased all frequency
        estimates low.) Returns the number of users admitted from this
        batch.

        The batch's shards run on the same executor as one-shot
        collection (:func:`repro.core.parallel.run_sharded`), for every
        ``config.workers`` value.
        """
        records = np.asarray(records)
        if records.ndim != 2 or records.shape[1] != len(self.schema):
            raise ProtocolError(
                f"batch shape {records.shape} does not match schema with "
                f"{len(self.schema)} attributes")
        rng = self._rng if rng is None else ensure_rng(rng)
        assignment = rng.integers(0, len(self.plans), size=len(records))
        group_rngs = spawn(rng, len(self.plans))
        tasks, task_group = [], []
        accepted = 0
        for g, plan in enumerate(self.plans):
            rows = records[assignment == g]
            if len(rows) == 0:
                continue
            if plan.num_cells < 2:
                accepted += self._admit_trivial(g, len(rows))
                continue
            columns = [rows[:, t] for t in plan.grid.column_indices]
            shards = perturb_tasks(plan, self._oracles[plan.key], columns,
                                   group_rngs[g], self.config.chunk_size)
            tasks.extend(shards)
            task_group.extend([g] * len(shards))
        reports = run_sharded(tasks, self.config.workers,
                              retries=self.config.shard_retries,
                              fault_injector=self.fault_injector,
                              stats=self.exec_stats)
        for g, report in zip(task_group, reports):
            users = self._admit(self.plans[g].key, report)
            self._group_sizes[g] += users
            accepted += users
        self.observed += accepted
        return accepted

    def _admit(self, key: Tuple[int, ...], report,
               source: str = "local") -> int:
        """Run one report through admission control; accumulate if valid.

        Returns the number of users the accumulated (possibly
        row-filtered) report carries — 0 when the whole report was
        rejected.
        """
        sanitized = sanitize_report(report, self.ingest_policy,
                                    self.ingest_stats,
                                    expected=self._specs.get(key),
                                    source=source)
        if sanitized is None:
            return 0
        self._batches[key].append(sanitized)
        return report_user_count(sanitized)

    def _admit_trivial(self, g: int, rows: int) -> int:
        """Account one group's users on a single-cell grid (no report)."""
        self._group_sizes[g] += rows
        self.trusted_users += rows
        return rows

    def ingest_report(self, key, report, source: str = None) -> bool:
        """Admit one externally produced report for the grid ``key``.

        This is the wire-facing entry point: the report was *not*
        perturbed by this collector, so nothing about it is trusted. It
        passes through the same admission control as locally observed
        batches — sanitized against the plan's oracle parameters, with
        rejections raising :class:`~repro.errors.IngestError` (``strict``)
        or counted in ``ingest_stats`` (``drop``/``quarantine``).

        ``source`` names the report's origin for the audit trail — the
        ingestion service passes the wire peer id; it defaults to the
        target grid key, so every quarantine entry is actionable even for
        direct calls.

        Returns True when the (possibly row-filtered) report was
        accumulated; accepted users count toward ``observed`` and the
        grid's group size.
        """
        key = tuple(key)
        if key not in self._batches:
            raise ProtocolError(
                f"no planned grid with key {key}; planned keys: "
                f"{sorted(self._batches)}")
        if source is None:
            source = f"grid={key}"
        users = self._admit(key, report, source=source)
        if users == 0:
            return False
        self._group_sizes[self._group_of[key]] += users
        self.observed += users
        return True

    def is_fresh(self) -> bool:
        """True while nothing has been observed, ingested, or restored.

        This is the precondition :func:`repro.service.restore_checkpoint`
        enforces on its target: a checkpoint may only be loaded into a
        collector indistinguishable from newly constructed, so the
        restored state is the checkpoint's alone.
        """
        return not (self.observed or self.trusted_users
                    or any(self._batches.values()))

    def compact(self) -> None:
        """Fold each grid's accumulated reports into one via the monoid.

        Merging is associative, so compaction never changes what
        ``finalize()`` computes — it only bounds memory on long streams
        (sufficient-statistic reports collapse to a single vector) and
        keeps checkpoints small. The ingestion service calls this
        periodically; it is safe at any point.
        """
        for key, batch in self._batches.items():
            if len(batch) > 1:
                self._batches[key] = [merge_reports(batch)]

    def finalize(self) -> Aggregator:
        """Build a queryable aggregator from everything observed so far.

        Can be called repeatedly; later calls include later batches.
        """
        if self.observed == 0:
            raise ConfigurationError("no users observed yet")
        accepted = self.ingest_stats.accepted_users + self.trusted_users
        assert self.observed == accepted, (
            f"admission accounting out of sync: observed={self.observed} "
            f"but accepted_users + trusted_users = {accepted}; a report "
            f"was counted without passing admission control")
        reports = []
        for g, plan in enumerate(self.plans):
            merged = merge_reports(self._batches[plan.key])
            reports.append(GroupReport(planned=plan, report=merged,
                                       group_size=int(
                                           self._group_sizes[g])))
        aggregator = Aggregator(self.schema, self.config)
        aggregator.n = self.observed
        aggregator.plans = self.plans
        # Share the stream's admission/fault accounting so the model's
        # robustness_report() covers the whole collection, not just the
        # finalize-time estimation pass.
        aggregator.ingest_stats = self.ingest_stats
        aggregator.exec_stats = self.exec_stats
        aggregator._finalize(reports)
        return aggregator
