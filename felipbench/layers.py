"""Which attribute of which module each layer's span wraps, and how the
traced cycle's spans and the program's own counters become per-layer
metrics.

Each wrapper sits at the attribute the caller resolves at call time:
``repro.core.server`` imported ``plan_grids``, ``fit_response_matrix``
and friends by name, so the wrapper replaces the name in
``repro.core.server``'s namespace; the frequency oracles call
``kernels.<name>`` through the module, so those wrappers replace the
module attributes of ``repro.fo.kernels``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from metrics import INJECTED_REASONS, KERNELS, PER_LAYER
from tracer import Span, Tracer, covered_share, totals_by_name

#: spans whose union is "time attributed to named layers"
ATTRIBUTED = ("fit", "materialize", "optimizer", "answer",
              "streaming.finalize")


def install(tracer: Tracer) -> None:
    import repro.core.client as client
    import repro.core.server as server
    import repro.core.streaming as streaming
    import repro.fo.kernels as kernels
    import repro.service.ingest as service_ingest
    from repro.core.server import Aggregator
    from repro.core.streaming import StreamingCollector

    def shards(t, args, kw, res):
        t.count("parallel.shards", len(args[0]))

    def users(t, args, kw, res):
        t.count("client.users", len(args[0]))

    def nodes(t, args, kw, res):
        t.count("optimizer.nodes", len(res.nodes))

    def frames(t, args, kw, res):
        t.count("wire.frames", 1)
        t.count("wire.bytes", len(args[0]))

    tracer.wrap(server, "plan_grids", "planner")
    tracer.wrap(streaming, "plan_grids", "planner")
    for name in KERNELS:
        tracer.wrap(kernels, name, f"kernels.{name}")
    tracer.wrap(server, "collect_reports", "client", counter=users)
    for module in (client, server, streaming):
        tracer.wrap(module, "run_sharded", None, counter=shards)
    tracer.wrap(Aggregator, "fit", "fit")
    tracer.wrap(Aggregator, "_finalize", "estimate")
    tracer.wrap(server, "postprocess_grids", "postprocess")
    tracer.wrap(Aggregator, "materialize", "materialize")
    tracer.wrap(server, "fit_response_matrix", "response_matrix")
    tracer.wrap(server, "SummedAreaTable", "sat")
    tracer.wrap(server, "build_answer_plan", "optimizer", counter=nodes)
    tracer.wrap(Aggregator, "execute_answer_plan", "answer")
    for strategy in list(Aggregator._NODE_EXECUTORS):
        tracer.wrap(Aggregator._NODE_EXECUTORS, strategy, "answer.node",
                    attrs=lambda args: {"lam": len(args[1])})
    tracer.wrap(server, "fit_lambda_queries", "lambda_query")
    tracer.wrap(service_ingest, "decode_frame", "wire", counter=frames)
    tracer.wrap(StreamingCollector, "ingest_report", "ingest")
    tracer.wrap(StreamingCollector, "compact", "merge")
    tracer.wrap(service_ingest, "save_checkpoint", "checkpoint")
    tracer.wrap(StreamingCollector, "finalize", "streaming.finalize")


def span_metrics(spans: List[Span], counts: Dict[str, int],
                 windows: List[Tuple[float, float]]) -> Dict[str, float]:
    """Self times, calls and counts of the traced cycle; ``windows`` are
    the intervals its time_to_answers_s adds up."""
    totals = totals_by_name(spans)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    out: Dict[str, float] = {
        "planner.self_s": self_s("planner"),
        "client.self_s": self_s("client"),
        "client.users": counts.get("client.users", 0),
        "parallel.shards": counts.get("parallel.shards", 0),
        "estimate.self_s": self_s("estimate"),
        "postprocess.self_s": self_s("postprocess"),
        "response_matrix.self_s": self_s("response_matrix"),
        "sat.builds": calls("sat"),
        "sat.self_s": self_s("sat"),
        "optimizer.self_s": self_s("optimizer"),
        "optimizer.nodes": counts.get("optimizer.nodes", 0),
        "lambda_query.self_s": self_s("lambda_query"),
        "wire.frames": counts.get("wire.frames", 0),
        "wire.bytes": counts.get("wire.bytes", 0),
        "wire.self_s": self_s("wire"),
        "ingest.self_s": self_s("ingest"),
        "merge.self_s": self_s("merge"),
        "checkpoint.saves": calls("checkpoint"),
        "checkpoint.self_s": self_s("checkpoint"),
    }
    for kernel in KERNELS:
        out[f"kernels.{kernel}.calls"] = calls(f"kernels.{kernel}")
        out[f"kernels.{kernel}.self_s"] = self_s(f"kernels.{kernel}")
    for lam in (1, 2, 3, 4):
        out[f"answer.lambda{lam}_s"] = sum(
            s.duration for s in spans
            if s.name == "answer.node" and s.attrs.get("lam") == lam)
    top = [s for s in spans if s.name in ATTRIBUTED]
    out["trace.attributed_share"] = (
        sum(covered_share(top, lo, hi) * (hi - lo) for lo, hi in windows)
        / sum(hi - lo for lo, hi in windows))
    return out


def program_counters(model_diag: dict, exec_stats, plans: int,
                     warnings_seen: int) -> Dict[str, int]:
    """Counts the program keeps itself (no tracing needed)."""
    stats = exec_stats.as_dict()
    matrices = list(model_diag["response_matrices"].values())
    lam = model_diag["lambda_queries"]
    return {"planner.grids": plans,
            "warnings.convergence": warnings_seen,
            "parallel.retried": int(stats["retries"]),
            "parallel.inline_degraded": int(stats["pool_fallbacks"]),
            "response_matrix.fits": len(matrices),
            "response_matrix.sweeps": sum(d["sweeps"] for d in matrices),
            "response_matrix.unconverged": sum(not d["converged"]
                                               for d in matrices),
            "lambda_query.queries": int(lam["queries"]),
            "lambda_query.sweeps": int(lam["total_sweeps"]),
            "lambda_query.unconverged": int(lam["non_converged"])}


def ingest_counters(ingest_stats, service_stats) -> Dict[str, int]:
    """Admission counts of one stream cycle (rejections by reason)."""
    stats = ingest_stats.as_dict()
    out = {"ingest.accepted_users": int(stats["accepted_users"]),
           "ingest.rejected_users": int(stats["dropped_users"]),
           "merge.compactions": int(service_stats.compactions),
           "checkpoint.bytes": int(service_stats.last_checkpoint_bytes)}
    for reason in INJECTED_REASONS:
        out[f"ingest.rejected.{reason}"] = 0
    for reason, frames in stats["reasons"].items():
        out[f"ingest.rejected.{reason}"] = int(frames)
    return out


def traced_count_names() -> List[str]:
    """Counts only the wrappers see; they must repeat exactly too."""
    return ([f"kernels.{kernel}.calls" for kernel in KERNELS]
            + ["client.users", "parallel.shards", "sat.builds",
               "optimizer.nodes", "wire.frames", "wire.bytes"])


def empty_per_layer() -> Dict[str, float]:
    return {name: 0 for name, _, _ in PER_LAYER}
