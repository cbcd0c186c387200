"""Client-side collection: project onto the assigned grid and perturb.

Each user belongs to exactly one group, projects their record onto that
group's grid (the cell index containing their values) and perturbs the cell
index with the grid's frequency oracle, spending the full budget ε. The
batch simulation below is distributionally identical to ``n`` independent
clients: every row uses independent randomness.

Two execution strategies produce the reports:

* :func:`collect_reports_serial` — the straight-line reference
  implementation: one pass per group over the full record matrix, one
  perturb call per group. It is the executable specification the sharded
  executor is tested against.
* :func:`collect_reports` — the sharded executor: a single radix-argsort
  grouping pass replaces the ``m`` boolean-mask scans, each (group, chunk)
  shard is a closure over zero-copy views of only the columns its grid
  encodes, and shards run on a thread pool (``workers``) before reducing
  through :func:`repro.core.merge.merge_reports`.

Determinism contract: with ``chunk_size=None`` the sharded executor spawns
one child generator per group and consumes it exactly like the serial
reference, so its reports are **bit-identical** to
:func:`collect_reports_serial` for any ``workers``. With a finite
``chunk_size`` each group's generator is further split one-per-chunk, so
outputs are a pure function of ``(seed, chunk_size)`` — still invariant
to ``workers``, but a different (equally valid) random stream.

Fault tolerance extends the contract rather than weakening it: every
randomized shard task snapshots its generator's state at construction and
restores it on entry, so a retried attempt (``retries`` > 0 after a
transient failure, or an injected chaos fault) replays exactly the RNG
stream the failed attempt consumed — a collection that loses any shard
once and retries it is bit-identical to the fault-free run.

Ingestion hardening: when an ``ingest`` policy is passed, every shard's
report is sanitized (``repro.robustness``) before reduction, with
expectations pinned to the planning oracle's parameters — so a malformed
or forged shard either fails loudly (``strict``) or is dropped/quarantined
with its users accounted in ``ingest_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.merge import merge_reports
from repro.core.parallel import (
    ExecutionStats,
    chunk_bounds,
    group_orders,
    run_sharded,
)
from repro.core.planner import PlannedGrid
from repro.errors import ProtocolError
from repro.fo.adaptive import make_oracle
from repro.fo.registry import get as protocol_spec
from repro.robustness.policy import (
    IngestPolicy,
    IngestStats,
    ReportSpec,
    sanitize_report,
)
from repro.rng import RngLike, ensure_rng, spawn


@dataclass
class GroupReport:
    """One group's perturbed reports (``None`` when nothing to perturb).

    ``report`` is ``None`` for empty groups and for trivial single-cell
    grids, whose frequency vector is known to be ``[1.0]`` a priori.
    """

    planned: PlannedGrid
    report: Optional[Any]
    group_size: int


def _check_assignment(records: np.ndarray, assignment: np.ndarray,
                      planned_grids: Sequence[PlannedGrid]) -> None:
    if len(assignment) != len(records):
        raise ProtocolError(
            f"{len(assignment)} assignments for {len(records)} records")
    if assignment.size and (assignment.min() < 0
                            or assignment.max() >= len(planned_grids)):
        raise ProtocolError(
            f"assignment labels [{assignment.min()}, {assignment.max()}] "
            f"outside [0, {len(planned_grids)}) planned groups")


def collect_reports_serial(records: np.ndarray, assignment: np.ndarray,
                           planned_grids: Sequence[PlannedGrid],
                           epsilon: float,
                           rng: RngLike = None) -> List[GroupReport]:
    """Reference implementation: strictly serial, one pass per group.

    Kept as the executable specification of the collection semantics; the
    sharded executor (:func:`collect_reports` with ``chunk_size=None``) is
    bit-identical to it under a fixed seed, whatever ``workers``.
    """
    _check_assignment(records, assignment, planned_grids)
    group_rngs = spawn(ensure_rng(rng), len(planned_grids))
    reports: List[GroupReport] = []
    for g, planned in enumerate(planned_grids):
        rows = records[assignment == g]
        if len(rows) == 0 or planned.num_cells < 2:
            reports.append(GroupReport(planned=planned, report=None,
                                       group_size=len(rows)))
            continue
        fit = protocol_spec(planned.protocol).interactive_fit
        if fit is not None:
            reports.append(GroupReport(
                planned=planned,
                report=fit(planned, rows[:, planned.grid.attr_index],
                           epsilon, group_rngs[g]),
                group_size=len(rows)))
            continue
        values = planned.grid.encode(rows)
        oracle = make_oracle(planned.protocol, epsilon, planned.num_cells)
        reports.append(GroupReport(
            planned=planned,
            report=oracle.perturb(values, group_rngs[g]),
            group_size=len(rows)))
    return reports


def collect_reports(records: np.ndarray, assignment: np.ndarray,
                    planned_grids: Sequence[PlannedGrid], epsilon: float,
                    rng: RngLike = None, *, workers: int = 1,
                    chunk_size: int = None,
                    ingest: Optional[IngestPolicy] = None,
                    ingest_stats: Optional[IngestStats] = None,
                    retries: int = 0, fault_injector=None,
                    exec_stats: Optional[ExecutionStats] = None
                    ) -> List[GroupReport]:
    """Run the client-side protocol for every group (sharded executor).

    Parameters
    ----------
    records:
        The full ``(n, k)`` code matrix.
    assignment:
        Group label per user (from :func:`repro.core.partition_users`).
    planned_grids:
        The collection plan; group ``g`` reports on ``planned_grids[g]``.
    epsilon:
        Privacy budget each user spends on their single report.
    rng:
        Seed or generator; children are spawned per group (and per chunk
        when ``chunk_size`` splits a group) so reports are independent
        across shards.
    workers:
        Pool width for shard execution (0 = one per CPU). Never affects
        the output — see the module determinism contract.
    chunk_size:
        Rows per shard within a group; ``None`` keeps whole groups (the
        geometry bit-identical to :func:`collect_reports_serial`).
    ingest, ingest_stats:
        Ingestion policy and its accounting: every shard report is
        sanitized against the group's oracle parameters before merging.
    retries, fault_injector, exec_stats:
        Fault-tolerance knobs forwarded to
        :func:`repro.core.parallel.run_sharded`; retried shards replay
        the same RNG stream.
    """
    _check_assignment(records, assignment, planned_grids)
    group_rngs = spawn(ensure_rng(rng), len(planned_grids))
    order, offsets = group_orders(assignment, len(planned_grids))

    tasks: List[Callable[[], Any]] = []
    task_group: List[int] = []
    specs: Dict[int, ReportSpec] = {}
    group_sizes: List[int] = []
    for g, planned in enumerate(planned_grids):
        indices = order[offsets[g]:offsets[g + 1]]
        group_sizes.append(len(indices))
        if len(indices) == 0 or planned.num_cells < 2:
            continue
        fit = protocol_spec(planned.protocol).interactive_fit
        if fit is not None:
            # Interactive backends consume their whole group; one shard.
            column = records[:, planned.grid.attr_index][indices]
            tasks.append(_interactive_task(fit, planned, column, epsilon,
                                           group_rngs[g]))
            task_group.append(g)
            continue
        columns = [records[:, t][indices]
                   for t in planned.grid.column_indices]
        oracle = make_oracle(planned.protocol, epsilon, planned.num_cells)
        if ingest is not None:
            specs[g] = ReportSpec.from_oracle(oracle)
        shards = perturb_tasks(planned, oracle, columns, group_rngs[g],
                               chunk_size)
        tasks.extend(shards)
        task_group.extend([g] * len(shards))

    shards_of = _execute(tasks, task_group, specs, len(planned_grids),
                         workers, retries, fault_injector, exec_stats,
                         ingest, ingest_stats)
    return [GroupReport(planned=planned,
                        report=merge_reports(shards_of[g]),
                        group_size=group_sizes[g])
            for g, planned in enumerate(planned_grids)]


def _execute(tasks: List[Callable[[], Any]], task_group: List[int],
             specs: Dict[int, ReportSpec], num_groups: int, workers: int,
             retries: int, fault_injector,
             exec_stats: Optional[ExecutionStats],
             ingest: Optional[IngestPolicy],
             ingest_stats: Optional[IngestStats]) -> Dict[int, list]:
    """Run the shard tasks and bucket sanitized results per group."""
    results = run_sharded(tasks, workers, retries=retries,
                          fault_injector=fault_injector, stats=exec_stats)
    shards_of: Dict[int, list] = {g: [] for g in range(num_groups)}
    for g, result in zip(task_group, results):
        if ingest is not None:
            result = sanitize_report(result, ingest, ingest_stats,
                                     expected=specs.get(g))
        if result is not None:
            shards_of[g].append(result)
    return shards_of


def perturb_tasks(planned: PlannedGrid, oracle,
                  columns: Sequence[np.ndarray], rng,
                  chunk_size: Optional[int]) -> List[Callable[[], Any]]:
    """Encode-and-perturb closures for one group, one per chunk.

    ``columns`` are the group's gathered record columns; each shard
    closes over zero-copy ``[start:stop]`` views of them. A single chunk
    consumes ``rng`` itself (the serial reference's stream); several
    chunks each get one spawned child of it.
    """
    bounds = chunk_bounds(len(columns[0]), chunk_size)
    shard_rngs = [rng] if len(bounds) == 1 else spawn(rng, len(bounds))
    return [_shard_task(planned, oracle, [c[start:stop] for c in columns],
                        shard_rng)
            for (start, stop), shard_rng in zip(bounds, shard_rngs)]


def _shard_task(planned: PlannedGrid, oracle, columns: List[np.ndarray],
                rng) -> Callable[[], Any]:
    """Encode-and-perturb closure for one (group, chunk) shard.

    The generator state is snapshotted at construction and restored on
    every entry, so a retried attempt after a transient failure replays
    exactly the stream the failed attempt consumed (the fault-tolerance
    half of the determinism contract).
    """
    state = rng.bit_generator.state

    def run():
        rng.bit_generator.state = state
        return oracle.perturb(planned.grid.encode_columns(*columns), rng)
    return run


def _interactive_task(fit, planned: PlannedGrid, column: np.ndarray,
                      epsilon: float, rng) -> Callable[[], Any]:
    """Shard closure for an interactive (whole-group) backend's fit.

    Same state-snapshot contract as :func:`_shard_task`: retries replay
    the exact RNG stream of the failed attempt.
    """
    state = rng.bit_generator.state

    def run():
        rng.bit_generator.state = state
        return fit(planned, column, epsilon, rng)
    return run


def collect_reports_budget_split(records: np.ndarray,
                                 planned_grids: Sequence[PlannedGrid],
                                 epsilon: float,
                                 rng: RngLike = None, *, workers: int = 1,
                                 chunk_size: int = None,
                                 ingest: Optional[IngestPolicy] = None,
                                 ingest_stats: Optional[IngestStats] = None,
                                 retries: int = 0, fault_injector=None,
                                 exec_stats: Optional[ExecutionStats] = None
                                 ) -> List[GroupReport]:
    """The Theorem 5.1 strawman: every user reports every grid with ε/m.

    Sequential composition makes the total privacy loss ε, identical to
    :func:`collect_reports`; the paper proves (and the ablation benchmark
    shows) this variant always has higher variance. Shares the sharded
    executor and its determinism contract (shards here are (grid, chunk)
    slices of the whole population).
    """
    if not planned_grids:
        raise ProtocolError("no grids planned")
    unsplittable = [p for p in planned_grids
                    if not protocol_spec(p.protocol).budget_splittable]
    if unsplittable:
        names = ", ".join(sorted({p.protocol.upper()
                                  for p in unsplittable}))
        raise ProtocolError(
            f"grids {[p.key for p in unsplittable]} use the {names} "
            f"protocol, which cannot run under budget splitting (its "
            f"adaptive refinement needs each group's full per-user "
            f"budget); use partition_mode='users' or a budget-splittable "
            f"backend")
    epsilon_each = epsilon / len(planned_grids)
    grid_rngs = spawn(ensure_rng(rng), len(planned_grids))

    tasks: List[Callable[[], Any]] = []
    task_group: List[int] = []
    specs: Dict[int, ReportSpec] = {}
    for g, planned in enumerate(planned_grids):
        if len(records) == 0 or planned.num_cells < 2:
            continue
        columns = [records[:, t] for t in planned.grid.column_indices]
        oracle = make_oracle(planned.protocol, epsilon_each,
                             planned.num_cells)
        if ingest is not None:
            specs[g] = ReportSpec.from_oracle(oracle)
        shards = perturb_tasks(planned, oracle, columns, grid_rngs[g],
                               chunk_size)
        tasks.extend(shards)
        task_group.extend([g] * len(shards))

    shards_of = _execute(tasks, task_group, specs, len(planned_grids),
                         workers, retries, fault_injector, exec_stats,
                         ingest, ingest_stats)
    return [GroupReport(planned=planned,
                        report=merge_reports(shards_of[g]),
                        group_size=len(records))
            for g, planned in enumerate(planned_grids)]
