"""Hadamard Response — extension protocol, and the registry's worked example.

HR (Acharya, Sun & Zhang, AISTATS'19; also benchmarked by Cormode,
Maddock & Maple) communicates a single ±1 bit plus a public row index of
the Hadamard matrix ``H`` of order ``D`` (the smallest power of two
larger than the domain, so every domain value owns a distinct *non-zero*
column ``c(v) = v + 1``; column 0 is all ones and is skipped). The client
draws a uniform row ``j``, computes ``x = H[j, c(v)] = (−1)^popcount(j &
c(v))`` and reports ``y = x`` with probability ``p = e^ε / (e^ε + 1)``,
else ``−x`` — a binary randomized response, so the mechanism is ε-LDP.

Distinct non-zero columns of ``H`` are orthogonal, hence for a uniform
row ``E[H(j, c_u) · H(j, c_v)] = δ_uv`` and

    f̂(v) = (1 / (n (2p − 1))) · Σ_i y_i · H(j_i, c_v)

is unbiased, with per-value variance ≈ ``((e^ε+1)/(e^ε−1))² / n`` —
independent of the domain size, like OLH (and never below it, since
``(e^ε+1)² ≥ 4e^ε``), so registering HR as an adaptive candidate can
never change an existing protocol choice.

This module is the complete integration surface of a new protocol: the
oracle, its report type, the merge monoid, the ingestion sanitizer, the
variance models, and one :func:`~repro.fo.registry.register` call. No
core/planner/merge/policy edits — batch, sharded, streaming, budget-split
collection, robustness ingestion, and grid sizing all pick HR up through
the registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import IngestError, ProtocolError
from repro.fo import kernels
from repro.fo.base import FrequencyOracle
from repro.fo.registry import ProtocolSpec, register
from repro.rng import RngLike, ensure_rng
from repro.robustness.ingest import (
    IngestPolicy,
    IngestStats,
    Reject,
    ReportSpec,
    check_int_rows,
)


def hadamard_order(domain_size: int) -> int:
    """Smallest power of two strictly larger than ``domain_size``.

    Strictly larger so that every domain value's column ``v + 1`` exists
    and none collides with the all-ones column 0.
    """
    if domain_size < 1:
        raise ProtocolError(
            f"domain_size must be >= 1, got {domain_size}")
    return 1 << int(domain_size).bit_length()


def hr_variance(epsilon: float, n: int = 1) -> float:
    """HR per-value variance ``((e^ε+1)/(e^ε−1))² / n`` (size-independent)."""
    if epsilon <= 0:
        raise ProtocolError(f"epsilon must be positive, got {epsilon}")
    if n < 1:
        raise ProtocolError(f"n must be >= 1, got {n}")
    e = math.exp(epsilon)
    return ((e + 1.0) / (e - 1.0)) ** 2 / n


@dataclass(frozen=True)
class HRReport:
    """Batch of HR reports: one Hadamard row index and one ±1 bit per user.

    Invariants enforced at construction (mirroring :class:`OLHReport`):
    one bit per row, rows in ``[0, hadamard_order)``, bits in ``{−1, +1}``.
    ``rows`` is normalized to ``int64`` and ``bits`` to ``int8``.
    """

    rows: np.ndarray
    bits: np.ndarray
    hadamard_order: int
    domain_size: int

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows)
        bits = np.asarray(self.bits)
        if rows.ndim != 1 or bits.ndim != 1:
            raise ProtocolError(
                f"rows and bits must be 1-D, got shapes {rows.shape} and "
                f"{bits.shape}")
        if len(rows) != len(bits):
            raise ProtocolError(
                f"{len(rows)} rows vs {len(bits)} bits")
        if self.hadamard_order < 2 or \
                self.hadamard_order & (self.hadamard_order - 1):
            raise ProtocolError(
                f"hadamard_order must be a power of two >= 2, got "
                f"{self.hadamard_order}")
        if self.domain_size >= self.hadamard_order:
            raise ProtocolError(
                f"hadamard_order {self.hadamard_order} must exceed the "
                f"domain size {self.domain_size}")
        if len(rows) and (rows.min() < 0
                          or rows.max() >= self.hadamard_order):
            raise ProtocolError(
                f"rows must lie in [0, {self.hadamard_order}), got range "
                f"[{rows.min()}, {rows.max()}]")
        if len(bits) and not np.isin(bits, (-1, 1)).all():
            raise ProtocolError("bits must be -1 or +1")
        object.__setattr__(self, "rows", rows.astype(np.int64, copy=False))
        object.__setattr__(self, "bits", bits.astype(np.int8, copy=False))

    def __len__(self) -> int:
        return len(self.rows)


class HadamardResponse(FrequencyOracle):
    """HR frequency oracle over ``{0..d-1}``."""

    name = "hr"

    def __init__(self, epsilon: float, domain_size: int):
        super().__init__(epsilon, domain_size)
        #: Hadamard order; named ``g`` so the generic
        #: :meth:`repro.robustness.ingest.ReportSpec.from_oracle` pins it
        #: as the report's expected ``hash_range``-style parameter.
        self.g = hadamard_order(self.domain_size)
        e = math.exp(self.epsilon)
        self.p = e / (e + 1.0)

    def perturb(self, values: np.ndarray, rng: RngLike = None) -> HRReport:
        """Ψ_HR: uniform Hadamard row, binary-RR the matrix entry."""
        values = self._check_values(values)
        rng = ensure_rng(rng)
        n = len(values)
        # Draw order is fixed (rows, then keep uniforms); the parity and
        # sign selection run in the kernel layer.
        rows = rng.integers(0, self.g, size=n, dtype=np.int64)
        keep_uniforms = rng.random(n)
        bits = kernels.hr_apply(rows, values, keep_uniforms, self.p)
        return HRReport(rows=rows, bits=bits,
                        hadamard_order=self.g,
                        domain_size=self.domain_size)

    def _supports(self, report: HRReport) -> np.ndarray:
        """``Σ_i y_i · H(j_i, c_v)`` for every domain value ``v``."""
        return kernels.hr_supports(report.rows, report.bits,
                                   self.domain_size)

    def estimate(self, report: HRReport) -> np.ndarray:
        """Φ_HR: unbias the signed Hadamard projections."""
        if report.domain_size != self.domain_size:
            raise ProtocolError(
                f"report domain {report.domain_size} != oracle domain "
                f"{self.domain_size}")
        if report.hadamard_order != self.g:
            raise ProtocolError(
                f"report Hadamard order {report.hadamard_order} != "
                f"oracle's {self.g}")
        n = len(report)
        if n == 0:
            raise ProtocolError("cannot estimate from zero reports")
        return self._supports(report) / (n * (2.0 * self.p - 1.0))

    def theoretical_variance(self, n: int) -> float:
        return hr_variance(self.epsilon, n)


def _merge_hr(reports: Sequence[HRReport]) -> HRReport:
    first = reports[0]
    if any(r.hadamard_order != first.hadamard_order
           or r.domain_size != first.domain_size for r in reports):
        raise ProtocolError("cannot merge HR reports across configs")
    return HRReport(
        rows=np.concatenate([r.rows for r in reports]),
        bits=np.concatenate([r.bits for r in reports]),
        hadamard_order=first.hadamard_order,
        domain_size=first.domain_size)


def _sanitize_hr(report: HRReport, policy: IngestPolicy,
                 stats: IngestStats, spec: Optional[ReportSpec]):
    rows = check_int_rows(report.rows, "rows")
    bits = check_int_rows(report.bits, "bits")
    if len(rows) != len(bits):
        raise Reject("row-bit-mismatch",
                     f"{len(rows)} rows vs {len(bits)} bits")
    order = spec.hash_range if spec and spec.hash_range else \
        int(report.hadamard_order)
    if spec and spec.hash_range and \
            report.hadamard_order != spec.hash_range:
        raise Reject("hadamard-order-mismatch",
                     f"declared {report.hadamard_order}, expected "
                     f"{spec.hash_range}")
    if spec and spec.domain_size and report.domain_size != spec.domain_size:
        raise Reject("domain-mismatch",
                     f"declared {report.domain_size}, "
                     f"expected {spec.domain_size}")
    valid = (rows >= 0) & (rows < order) & ((bits == 1) | (bits == -1))
    bad = int(len(rows) - valid.sum())
    if bad == 0:
        return HRReport(rows=rows, bits=bits, hadamard_order=order,
                        domain_size=report.domain_size), len(rows)
    if policy.mode == "strict":
        stats.record_reject("invalid-hr-rows", bad, policy,
                            f"{bad}/{len(rows)} rows")
        raise IngestError(
            f"HR report carries {bad} rows outside [0, {order}) or bits "
            f"outside {{-1, +1}}; strict ingest policy rejects it")
    stats.record_reject("invalid-hr-rows", bad, policy,
                        f"{bad}/{len(rows)} rows", whole_report=False)
    if not valid.any():
        return None, 0
    return HRReport(rows=rows[valid], bits=bits[valid],
                    hadamard_order=order,
                    domain_size=report.domain_size), int(valid.sum())


def _hr_analytic(epsilon: float, num_cells: int, n: int) -> float:
    return hr_variance(epsilon, n)


def _hr_cell_variance(params, num_cells: int) -> float:
    return params.m * hr_variance(params.epsilon, params.n)


register(ProtocolSpec(
    name="hr",
    wire_code=8,
    factory=HadamardResponse,
    report_type=HRReport,
    merger=_merge_hr,
    sanitizer=_sanitize_hr,
    analytic_variance=_hr_analytic,
    cell_variance=_hr_cell_variance,
    adaptive_candidate=True,  # never wins over OLH: (e^ε+1)² ≥ 4e^ε
    kernels=("hr_apply", "hr_supports"),
))
