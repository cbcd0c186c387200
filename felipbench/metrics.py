"""Metric declarations and the small statistics the benchmark reports.

The names, units and directions here are the benchmark's contract with
``BENCHMARK.json`` at the repository root; ``test_felipbench.py`` checks
that the two agree and that every name matches :data:`NAME_RE`.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Sequence, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: end-to-end metrics: (name, unit, better)
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("time_to_answers_s", "s", "lower"),
    ("collect_users_per_s", "users/s", "higher"),
    ("answer_queries_per_s", "queries/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p99_ms", "ms", "lower"),
    ("answer_mae", "fraction", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

KERNELS: Tuple[str, ...] = (
    "grr_apply", "ue_accumulate", "he_sum_accumulate",
    "he_threshold_accumulate", "support_counts", "hr_apply", "hr_supports",
    "sw_transform", "fold_arrays",
)

#: the rejection reasons the stream workload injects, one per mismatched pin
INJECTED_REASONS: Tuple[str, ...] = (
    "pin-epsilon-mismatch", "pin-cells-mismatch", "unknown-grid",
)


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    rows: List[Tuple[str, str]] = [
        ("planner.self_s", "s"), ("planner.grids", "count"),
    ]
    for kernel in KERNELS:
        rows += [(f"kernels.{kernel}.calls", "count"),
                 (f"kernels.{kernel}.self_s", "s")]
    rows += [
        ("client.self_s", "s"), ("client.users", "count"),
        ("parallel.shards", "count"), ("parallel.retried", "count"),
        ("parallel.inline_degraded", "count"),
        ("estimate.self_s", "s"),
        ("postprocess.self_s", "s"),
        ("response_matrix.self_s", "s"), ("response_matrix.fits", "count"),
        ("response_matrix.sweeps", "count"),
        ("response_matrix.unconverged", "count"),
        ("sat.builds", "count"), ("sat.self_s", "s"),
        ("optimizer.self_s", "s"), ("optimizer.nodes", "count"),
        ("lambda_query.self_s", "s"), ("lambda_query.queries", "count"),
        ("lambda_query.sweeps", "count"),
        ("lambda_query.unconverged", "count"),
        ("answer.lambda1_s", "s"), ("answer.lambda2_s", "s"),
        ("answer.lambda3_s", "s"), ("answer.lambda4_s", "s"),
        ("warnings.convergence", "count"),
        ("wire.frames", "count"), ("wire.bytes", "bytes"),
        ("wire.self_s", "s"),
        ("ingest.self_s", "s"), ("ingest.accepted_users", "count"),
        ("ingest.rejected_users", "count"),
    ]
    rows += [(f"ingest.rejected.{reason}", "count")
             for reason in INJECTED_REASONS]
    rows += [
        ("merge.compactions", "count"), ("merge.self_s", "s"),
        ("checkpoint.saves", "count"), ("checkpoint.bytes", "bytes"),
        ("checkpoint.self_s", "s"),
        ("service.queue_max", "frames"),
        ("service.consumer_busy_share", "fraction"),
        ("service.generator_lateness_p99_ms", "ms"),
        ("admit_p50_ms", "ms"), ("admit_p99_ms", "ms"),
        ("streaming.finalize_s", "s"),
        ("materialize_s", "s"), ("finalize_s", "s"),
        ("trace.time_to_answers_s", "s"),
        ("trace.untraced_time_to_answers_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.attributed_share", "fraction"),
    ]
    return tuple(rows)


#: per-layer metrics where more is better; every other one is a cost
_HIGHER = frozenset({"client.users", "ingest.accepted_users",
                     "trace.attributed_share"})

#: per-layer metrics: (name, unit, better); reported by the traced run
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (name, unit, "higher" if name in _HIGHER else "lower")
    for name, unit in _per_layer())

UNITS: Dict[str, str] = {name: unit
                         for name, unit, _ in END_TO_END + PER_LAYER}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100].

    Plain Python so the benchmark's own tests pin it without numpy.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile_ok(samples: int, q: float) -> bool:
    """True when at least ten samples lie beyond the ``q`` percentile."""
    return samples * (1.0 - q / 100.0) >= 10.0 - 1e-9
