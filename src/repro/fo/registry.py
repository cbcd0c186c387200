"""The protocol registry: one :class:`ProtocolSpec` per frequency oracle.

Before this module existed, "what is a protocol" was spread over six
parallel dispatch tables — the oracle factory in ``fo/adaptive.py``, the
merger map in ``core/merge.py``, the sanitizer map in
``robustness/policy.py``, the known-name whitelist in ``core/config.py``,
the variance-class tuple in ``grids/sizing.py``, and hardcoded
``protocol == "ahead"`` branches in the planner/client/server/streaming
layers. Every new oracle had to touch all of them, and they drifted.

Now a protocol is one :class:`ProtocolSpec` value: its name, how to build
its oracle, which report type it emits and how two such reports merge,
how an untrusted report is sanitized, its analytic and planning variance
models, and capability flags that every layer queries instead of matching
names:

* ``mergeable`` — reports form a monoid under :func:`merger`; required by
  chunked sharding, streaming, and cross-batch accumulation.
* ``budget_splittable`` — the protocol works at ``epsilon / m`` under the
  sequential-composition strawman (``partition_mode="budget"``).
* ``streamable`` — batches may arrive over time (implies ``mergeable``).
* ``one_d_only`` — a 1-D refinement backend selected via
  ``FelipConfig.one_d_protocol`` (SW, AHEAD), not pinnable via
  ``FelipConfig.protocols``.
* ``adaptive_candidate`` — considered by the adaptive frequency-oracle
  choice (paper Section 5.3) and by default grid planning.

Registering a spec (see :mod:`repro.fo.hr` for a complete worked example)
is the *only* step needed to make a new protocol usable end-to-end:
batch, sharded, streaming, budget-split, robustness ingestion, and grid
sizing all dispatch through the accessors here.

This module also hosts the specs of the eight built-in protocols, which
is why the per-protocol mergers and sanitizers live here: they are spec
payload, not layer logic. ``tests/test_registry_lint.py`` enforces that
no other module under ``src/repro`` dispatches on protocol name literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, IngestError, ProtocolError
from repro.fo import kernels as fo_kernels
from repro.fo.base import FrequencyOracle
from repro.fo.grr import GeneralizedRandomizedResponse, GRRReport
from repro.fo.he import (
    SHEReport,
    SummationHistogramEncoding,
    THEReport,
    ThresholdHistogramEncoding,
)
from repro.fo.olh import OLHReport, OptimizedLocalHashing
from repro.fo.oue import OptimizedUnaryEncoding, OUEReport
from repro.fo.square_wave import SquareWave, SWReport
from repro.fo.sue import SymmetricUnaryEncoding
from repro.fo.variance import grr_variance, olh_variance
from repro.robustness.ingest import (
    IngestPolicy,
    IngestStats,
    Reject,
    ReportSpec,
    check_feasible_total,
    check_int_rows,
    check_n,
    check_vector,
)


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the pipeline needs to know about one protocol.

    Attributes
    ----------
    name:
        Short identifier used in configs and plans (``"grr"``, ``"olh"``).
    factory:
        ``(epsilon, domain_size) -> FrequencyOracle``, or ``None`` for
        backends with no standalone client oracle (AHEAD, which consumes
        its whole group through :attr:`interactive_fit`).
    report_type:
        The report class :meth:`FrequencyOracle.perturb` returns. Several
        specs may share one (SUE perturbs into OUE's container); the first
        registered owner handles merging/sanitizing for the type.
    merger:
        ``(Sequence[report]) -> report`` combining disjoint user batches;
        must be associative and raise
        :class:`~repro.errors.ProtocolError` on parameter disagreement.
    sanitizer:
        ``(report, IngestPolicy, IngestStats, Optional[ReportSpec]) ->
        (report | None, users)`` validating one untrusted report; raises
        :class:`~repro.robustness.ingest.Reject` (whole-report) or
        row-filters per the policy. ``None`` means reports of this
        protocol pass through admission control unchecked (trusted
        in-process payloads only).
    analytic_variance:
        ``(epsilon, num_cells, n) -> float``: per-value estimation
        variance from ``n`` reports. Drives the adaptive choice and the
        budget-mode consistency weights.
    cell_variance:
        ``(SizingParams, num_cells) -> float``: the grid-planning
        per-cell variance model (includes the group factor ``m/n``).
    variance_grows_with_cells:
        True when per-cell variance grows with the cell count (GRR);
        selects the bisection solver branch in :mod:`repro.grids.sizing`
        instead of the size-independent closed forms.
    mergeable, budget_splittable, streamable, one_d_only,
    adaptive_candidate:
        Capability flags; see the module docstring.
    wire_code:
        Stable one-byte protocol tag for the binary wire codec
        (:mod:`repro.wire`). Codes are part of the wire format: once a
        code has shipped it must never be reassigned to a different
        protocol (retire codes, don't recycle them). ``None`` means
        reports of this protocol cannot travel over the wire (AHEAD's
        interactive models have no standalone report).
    interactive_fit:
        ``(planned, column, epsilon, rng) -> report`` for backends that
        consume a whole group interactively instead of a one-shot
        ``perturb`` (AHEAD's tree refinement).
    grid_estimator:
        ``(GroupReport) -> GridEstimate`` for backends whose report
        carries its own (data-adaptive) grid structure; ``None`` means
        the aggregator estimates with ``factory(...).estimate(report)``.
    kernels:
        Names of the :mod:`repro.fo.kernels` hot-path kernels this
        protocol dispatches to (perturb transforms, support sweeps,
        merge folds). Purely declarative — the oracle modules call the
        kernel layer directly — but it lets
        :func:`~repro.fo.adaptive.make_oracle` and :func:`kernels_for`
        warm exactly the kernels a plan will hit before any timed work,
        so compile or shared-library-load cost never lands inside a
        measured stage.
        Names are validated against
        :data:`repro.fo.kernels.KERNEL_NAMES` at registration.
    """

    name: str
    factory: Optional[Callable[[float, int], FrequencyOracle]] = None
    report_type: Optional[type] = None
    merger: Optional[Callable[[Sequence], object]] = None
    sanitizer: Optional[Callable[..., tuple]] = None
    analytic_variance: Optional[Callable[[float, int, int], float]] = None
    cell_variance: Optional[Callable[[object, int], float]] = None
    variance_grows_with_cells: bool = False
    mergeable: bool = True
    budget_splittable: bool = True
    streamable: bool = True
    one_d_only: bool = False
    adaptive_candidate: bool = False
    wire_code: Optional[int] = None
    interactive_fit: Optional[Callable] = None
    grid_estimator: Optional[Callable] = None
    kernels: Tuple[str, ...] = ()


_REGISTRY: Dict[str, ProtocolSpec] = {}
_BY_REPORT_TYPE: Dict[type, ProtocolSpec] = {}
_BY_WIRE_CODE: Dict[int, ProtocolSpec] = {}

#: the pseudo-protocol resolved to a concrete adaptive candidate at
#: planning time; accepted by name-based predicates, never registered
ADAPTIVE = "adaptive"


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Add a protocol to the registry; returns the spec for convenience.

    Validates internal consistency up front so a broken spec fails at
    import time, not deep inside a collection: mergeable specs need a
    report type and a merger, streamable implies mergeable, and a spec
    without a client-side oracle factory must provide the interactive
    fitting path instead.
    """
    if not spec.name or spec.name == ADAPTIVE:
        raise ConfigurationError(
            f"invalid protocol name {spec.name!r}: must be a non-empty "
            f"name other than {ADAPTIVE!r}")
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"protocol {spec.name!r} is already registered; unregister it "
            f"first to replace the spec")
    if spec.mergeable and (spec.report_type is None or spec.merger is None):
        raise ConfigurationError(
            f"protocol {spec.name!r} is flagged mergeable but lacks a "
            f"report_type/merger pair")
    if spec.streamable and not spec.mergeable:
        raise ConfigurationError(
            f"protocol {spec.name!r} is flagged streamable but not "
            f"mergeable; streaming accumulates reports across batches")
    if spec.factory is None and spec.interactive_fit is None:
        raise ConfigurationError(
            f"protocol {spec.name!r} provides neither an oracle factory "
            f"nor an interactive_fit collection path")
    if spec.wire_code is not None:
        if not 1 <= spec.wire_code <= 255:
            raise ConfigurationError(
                f"protocol {spec.name!r} wire_code must fit one byte "
                f"(1..255), got {spec.wire_code}")
        if spec.wire_code in _BY_WIRE_CODE:
            raise ConfigurationError(
                f"wire_code {spec.wire_code} of protocol {spec.name!r} is "
                f"already taken by "
                f"{_BY_WIRE_CODE[spec.wire_code].name!r}; wire codes are "
                f"part of the frame format and must be unique forever")
        if spec.report_type is None:
            raise ConfigurationError(
                f"protocol {spec.name!r} declares wire_code "
                f"{spec.wire_code} but no report_type to decode into")
    unknown = [k for k in spec.kernels if k not in fo_kernels.KERNEL_NAMES]
    if unknown:
        raise ConfigurationError(
            f"protocol {spec.name!r} declares unknown kernels {unknown}; "
            f"known kernels: {list(fo_kernels.KERNEL_NAMES)}")
    _REGISTRY[spec.name] = spec
    if spec.report_type is not None and \
            spec.report_type not in _BY_REPORT_TYPE:
        # First owner wins: SUE shares OUE's report container, so OUE's
        # spec handles OUEReport merging and sanitizing.
        _BY_REPORT_TYPE[spec.report_type] = spec
    if spec.wire_code is not None:
        _BY_WIRE_CODE[spec.wire_code] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a protocol (test hook); unknown names are a no-op."""
    spec = _REGISTRY.pop(name, None)
    if spec is None:
        return
    _BY_REPORT_TYPE.clear()
    _BY_WIRE_CODE.clear()
    for other in _REGISTRY.values():
        if other.report_type is not None and \
                other.report_type not in _BY_REPORT_TYPE:
            _BY_REPORT_TYPE[other.report_type] = other
        if other.wire_code is not None:
            _BY_WIRE_CODE[other.wire_code] = other


def get(name: str) -> ProtocolSpec:
    """The spec registered under ``name``.

    This is the single source of the unknown-protocol error: every layer
    (oracle construction, config validation, grid sizing) raises the same
    :class:`~repro.errors.ConfigurationError` listing what is actually
    registered.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; registered protocols: "
            f"{list(_REGISTRY)} (or {ADAPTIVE!r}, resolved to a concrete "
            f"candidate at planning time)") from None


def registered_names() -> Tuple[str, ...]:
    """All registered protocol names, in registration order."""
    return tuple(_REGISTRY)


def all_specs() -> Tuple[ProtocolSpec, ...]:
    """All registered specs, in registration order."""
    return tuple(_REGISTRY.values())


def spec_for_report(report_type: type) -> Optional[ProtocolSpec]:
    """The spec owning a report class, or ``None`` for foreign types."""
    return _BY_REPORT_TYPE.get(report_type)


def spec_for_wire_code(code: int) -> Optional[ProtocolSpec]:
    """The spec registered under a wire protocol tag, or ``None``.

    The binary codec (:mod:`repro.wire`) resolves the frame header's
    one-byte protocol tag here, so a newly registered protocol with a
    ``wire_code`` becomes decodable with zero codec edits.
    """
    return _BY_WIRE_CODE.get(int(code))


def wire_codes() -> Dict[str, int]:
    """``{protocol name: wire code}`` for every wire-capable protocol."""
    return {s.name: s.wire_code for s in _REGISTRY.values()
            if s.wire_code is not None}


def adaptive_candidates() -> Tuple[ProtocolSpec, ...]:
    """Specs the adaptive frequency-oracle choice considers, in order.

    Registration order is the tie-break: the first candidate whose
    variance no later candidate strictly beats wins (GRR before OLH
    reproduces the paper's Eq. 13 ``<=`` comparison exactly).
    """
    return tuple(s for s in _REGISTRY.values() if s.adaptive_candidate)


def kernels_for(protocols: Iterable[str]) -> Tuple[str, ...]:
    """The union of hot-path kernel names a set of protocols dispatches
    to, for targeted :func:`repro.fo.kernels.warm` calls before timed
    work. The :data:`ADAPTIVE` pseudo-protocol expands to every adaptive
    candidate (the concrete choice is not known until planning runs).
    Order follows :data:`repro.fo.kernels.KERNEL_NAMES` for determinism.
    """
    wanted = set()
    for name in protocols:
        specs = adaptive_candidates() if name == ADAPTIVE else (get(name),)
        for spec in specs:
            wanted.update(spec.kernels)
    return tuple(k for k in fo_kernels.KERNEL_NAMES if k in wanted)


def pinnable_protocol_names() -> Tuple[str, ...]:
    """Names valid in ``FelipConfig.protocols`` (not 1-D-only backends)."""
    return tuple(n for n, s in _REGISTRY.items() if not s.one_d_only)


def one_d_protocol_names() -> Tuple[str, ...]:
    """Names valid in ``FelipConfig.one_d_protocol``."""
    return tuple(n for n, s in _REGISTRY.items() if s.one_d_only)


def mergeable_protocol_names() -> Tuple[str, ...]:
    """Names whose reports :func:`repro.core.merge.merge_reports` merges."""
    return tuple(n for n, s in _REGISTRY.items() if s.mergeable)


# ---------------------------------------------------------------------------
# Merge monoids of the built-in report types (moved from core/merge.py).
# Each validates cross-report parameter agreement, then concatenates
# per-user rows (GRR/OLH) or adds sufficient statistics (the rest).
# ---------------------------------------------------------------------------


def _merge_grr(reports: Sequence[GRRReport]) -> GRRReport:
    first = reports[0]
    if any(r.domain_size != first.domain_size for r in reports):
        raise ProtocolError("cannot merge GRR reports across domains")
    return GRRReport(
        values=np.concatenate([r.values for r in reports]),
        domain_size=first.domain_size)


def _merge_olh(reports: Sequence[OLHReport]) -> OLHReport:
    first = reports[0]
    if any(r.hash_range != first.hash_range
           or r.domain_size != first.domain_size for r in reports):
        raise ProtocolError("cannot merge OLH reports across configs")
    return OLHReport(
        seeds=np.concatenate([r.seeds for r in reports]),
        buckets=np.concatenate([r.buckets for r in reports]),
        hash_range=first.hash_range, domain_size=first.domain_size)


def _merge_oue(reports: Sequence[OUEReport]) -> OUEReport:
    first = reports[0]
    if any(len(r.ones) != len(first.ones) for r in reports):
        raise ProtocolError("cannot merge OUE reports across domains")
    return OUEReport(
        ones=fo_kernels.fold_arrays([r.ones for r in reports]),
        n=sum(r.n for r in reports))


def _merge_she(reports: Sequence[SHEReport]) -> SHEReport:
    first = reports[0]
    if any(len(r.sums) != len(first.sums) for r in reports):
        raise ProtocolError("cannot merge SHE reports across domains")
    return SHEReport(
        sums=fo_kernels.fold_arrays([r.sums for r in reports]),
        n=sum(r.n for r in reports))


def _merge_the(reports: Sequence[THEReport]) -> THEReport:
    first = reports[0]
    if any(len(r.supports) != len(first.supports)
           or abs(r.threshold - first.threshold) > 1e-12
           for r in reports):
        raise ProtocolError("cannot merge THE reports across configs")
    return THEReport(
        supports=fo_kernels.fold_arrays([r.supports for r in reports]),
        n=sum(r.n for r in reports),
        threshold=first.threshold)


def _merge_sw(reports: Sequence[SWReport]) -> SWReport:
    first = reports[0]
    if any(len(r.counts) != len(first.counts)
           or abs(r.wave_width - first.wave_width) > 1e-12
           for r in reports):
        raise ProtocolError("cannot merge SW reports across configs")
    return SWReport(
        counts=fo_kernels.fold_arrays([r.counts for r in reports]),
        n=sum(r.n for r in reports),
        wave_width=first.wave_width)


# ---------------------------------------------------------------------------
# Ingestion sanitizers of the built-in report types (moved from
# robustness/policy.py; the dispatch driver stays there). Per-user-row
# types are filtered row-wise in drop mode; aggregate sufficient
# statistics are all-or-nothing, with k-sigma feasibility tests where the
# protocol admits one.
# ---------------------------------------------------------------------------


def _sanitize_grr(report: GRRReport, policy: IngestPolicy,
                  stats: IngestStats, spec: Optional[ReportSpec]):
    values = check_int_rows(report.values, "values")
    domain = spec.domain_size if spec and spec.domain_size else \
        int(report.domain_size)
    if spec and spec.domain_size and report.domain_size != spec.domain_size:
        raise Reject("domain-mismatch",
                     f"declared {report.domain_size}, "
                     f"expected {spec.domain_size}")
    valid = (values >= 0) & (values < domain)
    bad = int(len(values) - valid.sum())
    if bad == 0:
        return GRRReport(values=values, domain_size=domain), len(values)
    if policy.mode == "strict":
        stats.record_reject("out-of-domain-values", bad, policy,
                            f"{bad}/{len(values)} rows")
        raise IngestError(
            f"GRR report carries {bad} out-of-domain values "
            f"(domain [0, {domain})); strict ingest policy rejects it")
    stats.record_reject("out-of-domain-values", bad, policy,
                        f"{bad}/{len(values)} rows", whole_report=False)
    kept = values[valid]
    if len(kept) == 0:
        return None, 0
    return GRRReport(values=kept, domain_size=domain), len(kept)


def _sanitize_olh(report: OLHReport, policy: IngestPolicy,
                  stats: IngestStats, spec: Optional[ReportSpec]):
    seeds = np.asarray(report.seeds)
    buckets = check_int_rows(report.buckets, "buckets")
    if seeds.ndim != 1 or len(seeds) != len(buckets):
        raise Reject("seed-bucket-mismatch",
                     f"{seeds.shape} seeds vs {len(buckets)} buckets")
    g = spec.hash_range if spec and spec.hash_range else \
        int(report.hash_range)
    if spec and spec.hash_range and report.hash_range != spec.hash_range:
        raise Reject("hash-range-mismatch",
                     f"declared {report.hash_range}, expected "
                     f"{spec.hash_range}")
    if spec and spec.domain_size and report.domain_size != spec.domain_size:
        raise Reject("domain-mismatch",
                     f"declared {report.domain_size}, "
                     f"expected {spec.domain_size}")
    valid = (buckets >= 0) & (buckets < g)
    bad = int(len(buckets) - valid.sum())
    if bad == 0:
        return OLHReport(seeds=seeds.astype(np.uint64, copy=False),
                         buckets=buckets, hash_range=g,
                         domain_size=report.domain_size), len(buckets)
    if policy.mode == "strict":
        stats.record_reject("out-of-range-buckets", bad, policy,
                            f"{bad}/{len(buckets)} rows")
        raise IngestError(
            f"OLH report carries {bad} buckets outside [0, {g}); strict "
            f"ingest policy rejects it")
    stats.record_reject("out-of-range-buckets", bad, policy,
                        f"{bad}/{len(buckets)} rows", whole_report=False)
    if not valid.any():
        return None, 0
    return OLHReport(seeds=seeds[valid].astype(np.uint64, copy=False),
                     buckets=buckets[valid], hash_range=g,
                     domain_size=report.domain_size), int(valid.sum())


def _sanitize_oue(report: OUEReport, policy: IngestPolicy,
                  stats: IngestStats, spec: Optional[ReportSpec]):
    n = check_n(report.n)
    d = spec.domain_size if spec and spec.domain_size else len(
        np.atleast_1d(np.asarray(report.ones)))
    ones = check_vector(report.ones, "ones", d)
    if (ones < 0).any() or (ones > n).any():
        raise Reject("counter-out-of-bounds",
                     f"per-value 1-counts must lie in [0, n={n}]")
    if spec and spec.p is not None and spec.q is not None and n > 0:
        # Honest total one-bits: Binomial(n, p) + Binomial(n(d-1), q).
        mean = n * (spec.p + spec.q * (d - 1))
        var = (n * spec.p * (1 - spec.p)
               + n * (d - 1) * spec.q * (1 - spec.q))
        check_feasible_total(float(ones.sum()), mean, var,
                             policy.feasibility_sigmas)
    return OUEReport(ones=ones.astype(np.int64), n=n), n


def _sanitize_she(report: SHEReport, policy: IngestPolicy,
                  stats: IngestStats, spec: Optional[ReportSpec]):
    n = check_n(report.n)
    d = spec.domain_size if spec and spec.domain_size else len(
        np.atleast_1d(np.asarray(report.sums)))
    sums = check_vector(report.sums, "sums", d)
    if spec and spec.scale is not None and n > 0:
        # Each honest user contributes exactly one one-hot unit plus
        # zero-mean Laplace(scale) noise on every coordinate, so the
        # grand total is n ± noise with variance n·d·2·scale².
        var = n * d * 2.0 * spec.scale ** 2
        check_feasible_total(float(sums.sum()), float(n), var,
                             policy.feasibility_sigmas)
    return SHEReport(sums=sums, n=n), n


def _sanitize_the(report: THEReport, policy: IngestPolicy,
                  stats: IngestStats, spec: Optional[ReportSpec]):
    n = check_n(report.n)
    d = spec.domain_size if spec and spec.domain_size else len(
        np.atleast_1d(np.asarray(report.supports)))
    supports = check_vector(report.supports, "supports", d)
    if (supports < 0).any() or (supports > n).any():
        raise Reject("counter-out-of-bounds",
                     f"support counts must lie in [0, n={n}]")
    if not np.isfinite(report.threshold):
        raise Reject("threshold-not-finite", f"θ={report.threshold}")
    if spec and spec.threshold is not None and \
            abs(report.threshold - spec.threshold) > 1e-9:
        raise Reject("threshold-mismatch",
                     f"declared θ={report.threshold}, expected "
                     f"{spec.threshold}")
    if spec and spec.p is not None and spec.q is not None and n > 0:
        mean = n * (spec.p + spec.q * (d - 1))
        var = (n * spec.p * (1 - spec.p)
               + n * (d - 1) * spec.q * (1 - spec.q))
        check_feasible_total(float(supports.sum()), mean, var,
                             policy.feasibility_sigmas)
    return THEReport(supports=supports.astype(np.int64), n=n,
                     threshold=float(report.threshold)), n


def _sanitize_sw(report: SWReport, policy: IngestPolicy,
                 stats: IngestStats, spec: Optional[ReportSpec]):
    n = check_n(report.n)
    buckets = spec.report_buckets if spec and spec.report_buckets else len(
        np.atleast_1d(np.asarray(report.counts)))
    counts = check_vector(report.counts, "counts", buckets)
    if (counts < 0).any():
        raise Reject("negative-counts", "SW bucket counts must be >= 0")
    if int(counts.sum()) != n:
        raise Reject("support-mismatch",
                     f"counts sum to {int(counts.sum())}, declared n={n}")
    if not np.isfinite(report.wave_width) or report.wave_width <= 0:
        raise Reject("wave-width-invalid", f"b={report.wave_width}")
    if spec and spec.wave_width is not None and \
            abs(report.wave_width - spec.wave_width) > 1e-9:
        raise Reject("wave-width-mismatch",
                     f"declared b={report.wave_width}, expected "
                     f"{spec.wave_width}")
    return SWReport(counts=counts.astype(np.int64), n=n,
                    wave_width=float(report.wave_width)), n


# ---------------------------------------------------------------------------
# Variance models. The unary/histogram/square-wave protocols have no
# closed form that grows with the cell count; OLH's size-independent
# variance is their planning proxy (exactly the pre-registry behavior).
# ---------------------------------------------------------------------------


def _grr_analytic(epsilon: float, num_cells: int, n: int) -> float:
    return grr_variance(epsilon, num_cells, n)


def _olh_class_analytic(epsilon: float, num_cells: int, n: int) -> float:
    return olh_variance(epsilon, n)


def _grr_cell_variance(params, num_cells: int) -> float:
    return params.cell_variance_grr(num_cells)


def _olh_class_cell_variance(params, num_cells: int) -> float:
    return params.cell_variance_olh


# ---------------------------------------------------------------------------
# AHEAD's interactive collection and estimation paths. Imports stay local:
# baselines and grids both import repro.fo, so a module-level import here
# would be a cycle.
# ---------------------------------------------------------------------------


def _fit_ahead(planned, column: np.ndarray, epsilon: float, rng):
    """Run the AHEAD adaptive decomposition on one group's column.

    The group's users are partitioned across AHEAD's tree-building rounds
    internally; each still submits exactly one ε-LDP report.
    """
    from repro.baselines.ahead import Ahead1D
    model = Ahead1D(planned.grid.attribute.domain_size, epsilon)
    return model.fit(column, rng)


def _estimate_ahead_group(group):
    """Turn a fitted AHEAD model into a (data-adaptively binned) grid.

    The planned placeholder grid is replaced by one whose binning is the
    model's final frontier — finer cells where the data is — and whose
    frequencies are the frontier estimates. Downstream stages
    (consistency, response matrices) already handle arbitrary contiguous
    binnings.
    """
    from repro.grids.binning import Binning
    from repro.grids.grid import Grid1D, GridEstimate
    model = group.report
    intervals = model.frontier
    edges = np.array([iv.lo for iv in intervals]
                     + [intervals[-1].hi + 1], dtype=np.int64)
    binning = Binning.from_edges(edges)
    grid = Grid1D(group.planned.grid.attr_index,
                  group.planned.grid.attribute, binning)
    freqs = np.array([iv.frequency for iv in intervals])
    return GridEstimate(grid=grid, frequencies=freqs)


# ---------------------------------------------------------------------------
# Built-in protocol specs. Registration order matters for tie-breaking:
# GRR before OLH reproduces the paper's Eq. 13 "GRR on ties" choice, and
# plan_grid keeps the earliest-registered candidate on equal predicted
# error.
# ---------------------------------------------------------------------------


register(ProtocolSpec(
    name="grr",
    wire_code=1,
    factory=GeneralizedRandomizedResponse,
    report_type=GRRReport,
    merger=_merge_grr,
    sanitizer=_sanitize_grr,
    analytic_variance=_grr_analytic,
    cell_variance=_grr_cell_variance,
    variance_grows_with_cells=True,
    adaptive_candidate=True,
    kernels=("grr_apply",),
))

register(ProtocolSpec(
    name="olh",
    wire_code=2,
    factory=OptimizedLocalHashing,
    report_type=OLHReport,
    merger=_merge_olh,
    sanitizer=_sanitize_olh,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    adaptive_candidate=True,
    kernels=("grr_apply", "support_counts"),
))

register(ProtocolSpec(
    name="oue",
    wire_code=3,
    factory=OptimizedUnaryEncoding,
    report_type=OUEReport,
    merger=_merge_oue,
    sanitizer=_sanitize_oue,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    kernels=("ue_accumulate", "fold_arrays"),
))

register(ProtocolSpec(
    name="sue",
    wire_code=4,
    factory=SymmetricUnaryEncoding,
    report_type=OUEReport,  # SUE perturbs into OUE's container
    merger=_merge_oue,
    sanitizer=_sanitize_oue,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    kernels=("ue_accumulate", "fold_arrays"),
))

register(ProtocolSpec(
    name="she",
    wire_code=5,
    factory=SummationHistogramEncoding,
    report_type=SHEReport,
    merger=_merge_she,
    sanitizer=_sanitize_she,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    kernels=("he_sum_accumulate", "fold_arrays"),
))

register(ProtocolSpec(
    name="the",
    wire_code=6,
    factory=ThresholdHistogramEncoding,
    report_type=THEReport,
    merger=_merge_the,
    sanitizer=_sanitize_the,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    kernels=("he_threshold_accumulate", "fold_arrays"),
))

register(ProtocolSpec(
    name="sw",
    wire_code=7,
    factory=SquareWave,
    report_type=SWReport,
    merger=_merge_sw,
    sanitizer=_sanitize_sw,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    one_d_only=True,
    kernels=("sw_transform", "fold_arrays"),
))

register(ProtocolSpec(
    name="ahead",
    factory=None,
    report_type=None,
    merger=None,
    sanitizer=None,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    mergeable=False,
    budget_splittable=False,
    streamable=False,
    one_d_only=True,
    interactive_fit=_fit_ahead,
    grid_estimator=_estimate_ahead_group,
))
