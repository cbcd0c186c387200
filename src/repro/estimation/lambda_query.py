"""Algorithm 4: estimating a λ-D answer from its 2-D sub-answers.

A λ-D query splits into ``C(λ, 2)`` 2-D queries. The estimator maintains a
vector ``z`` over the ``2^λ`` sign patterns (bit ``t`` set ⇔ predicate ``t``
satisfied, clear ⇔ its complement) and repeatedly rescales, for every pair
``(i, j)`` and every sign combination of that pair, the ``2^(λ−2)`` matching
entries so their total equals the pair's observed answer. The final estimate
is ``z[all bits set]``.

Unlike a positives-only update, using all four sign combinations per pair
fully constrains the pair's 2-D margin of ``z`` — this is the variant the
HDG reference implementation uses, and it converges to the maximum-entropy
distribution consistent with the pairwise answers.

Stopping rule (as in Algorithm 3): a query stops when ``z`` settles — the
L1 distance it moves over one full sweep falls below ``1/n`` — with a
sweep cap as a backstop. Sign tables derived from different response
matrices can disagree on a shared predicate's margin; cyclic scaling then
settles into a fixed point whose constraint residual never reaches
``1/n``. That residual is kept as a per-query infeasibility diagnostic,
not used as the stop test.

Vectorized sweep
----------------
``z`` is viewed as a ``(2,) * λ`` tensor in which predicate ``t`` owns axis
``λ-1-t`` (C order). One pair's four sign constraints are then exactly the
pair's 2-D margin ``z.sum(over the other λ-2 axes)`` — the four sign blocks
are disjoint, so the whole pair applies as ONE broadcast rescale instead of
four fancy-indexed member-list updates. The same kernel runs *batched*:
stacking ``Q`` queries' ``z`` vectors into a ``(Q, 2^λ)`` array sweeps every
query simultaneously, with per-query convergence freezing so each query's
trajectory is identical to its solo run. The property tests keep the
original per-member-list loop as an oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.estimation.response_matrix import (
    IPFDiagnostics,
    _warn_non_convergence,
)


@dataclass(frozen=True)
class PairAnswers:
    """All four sign-combination answers of one 2-D sub-query.

    ``pp``: both predicates satisfied; ``pn``: first satisfied, second
    complemented; ``np_``/``nn`` analogously. The four values describe a
    complete 2x2 contingency table and should sum to ~1.
    """

    pp: float
    pn: float
    np_: float
    nn: float

    def as_table(self) -> np.ndarray:
        """2x2 table indexed ``[first_sign, second_sign]`` (1 = satisfied)."""
        return np.array([[self.nn, self.np_], [self.pn, self.pp]])


def _renormalize_tables(tables: np.ndarray, totals: np.ndarray) -> None:
    """Rescale clipped 2x2 tables back to their matrix totals, in place.

    Clipping each sign cell at 0 independently can push the table total
    above (or leave it below) the response-matrix mass it decomposes —
    the λ-D combination then chases an infeasible margin. Rescaling the
    whole table restores ``sum == total`` without reintroducing negatives.
    """
    sums = tables.sum(axis=(-2, -1))
    fix = (sums > 0.0) & (totals > 0.0) & (sums != totals)
    if np.any(fix):
        factor = np.ones_like(sums)
        factor[fix] = totals[fix] / sums[fix]
        tables *= factor[..., None, None]


def pair_answers_from_matrix(matrix: np.ndarray, indicator_i: np.ndarray,
                             indicator_j: np.ndarray) -> PairAnswers:
    """Derive the four sign answers from a response matrix.

    ``indicator_i``/``indicator_j`` are 0/1 vectors over the two attribute
    domains (from :meth:`Predicate.indicator`). Rectangle sums on the
    response matrix are exact — no uniformity assumption at this level.
    Small negative round-off is clipped, then the 2x2 table is renormalized
    so its total still equals the matrix total.
    """
    if matrix.shape != (len(indicator_i), len(indicator_j)):
        raise EstimationError(
            f"matrix shape {matrix.shape} does not match indicators "
            f"({len(indicator_i)}, {len(indicator_j)})"
        )
    table = pair_answers_tables(matrix, indicator_i[None, :],
                                indicator_j[None, :])[0]
    return PairAnswers(pp=float(table[1, 1]), pn=float(table[1, 0]),
                       np_=float(table[0, 1]), nn=float(table[0, 0]))


def pair_answers_tables(matrix: np.ndarray, indicators_i: np.ndarray,
                        indicators_j: np.ndarray) -> np.ndarray:
    """Batched :func:`pair_answers_from_matrix`: ``Q`` queries at once.

    ``indicators_i``/``indicators_j`` are ``(Q, d_i)`` / ``(Q, d_j)``
    indicator stacks; returns ``(Q, 2, 2)`` sign tables indexed
    ``[query, first_sign, second_sign]`` (1 = satisfied), clipped at 0 and
    renormalized to the matrix total.
    """
    indicators_i = np.asarray(indicators_i, dtype=np.float64)
    indicators_j = np.asarray(indicators_j, dtype=np.float64)
    if matrix.shape != (indicators_i.shape[1], indicators_j.shape[1]):
        raise EstimationError(
            f"matrix shape {matrix.shape} does not match indicator stacks "
            f"({indicators_i.shape[1]}, {indicators_j.shape[1]})"
        )
    total = float(matrix.sum())
    # einsum, not BLAS @: its fixed summation order makes the reductions
    # batch-size invariant, so a batch of one reproduces a batch of many
    # bit-for-bit (BLAS picks different gemv/gemm kernels by shape).
    row = np.einsum("qi,i->q", indicators_i, matrix.sum(axis=1),
                    optimize=False)
    col = np.einsum("qj,j->q", indicators_j, matrix.sum(axis=0),
                    optimize=False)
    pp = np.einsum("qi,ij,qj->q", indicators_i, matrix, indicators_j,
                   optimize=False)
    pn = np.maximum(row - pp, 0.0)
    np_ = np.maximum(col - pp, 0.0)
    nn = np.maximum(total - row - col + pp, 0.0)
    pp = np.maximum(pp, 0.0)
    tables = np.stack([np.stack([nn, np_], axis=-1),
                       np.stack([pn, pp], axis=-1)], axis=-2)
    _renormalize_tables(tables, np.full(len(tables), total))
    return tables


def canonical_pairs(dimension: int) -> List[Tuple[int, int]]:
    """The ``C(λ, 2)`` predicate-position pairs in lexicographic order."""
    return list(itertools.combinations(range(dimension), 2))


def _validate_pair_answers(pair_answers, dimension: int, n: int) -> None:
    if dimension < 2:
        raise EstimationError(f"dimension must be >= 2, got {dimension}")
    expected = set(canonical_pairs(dimension))
    if set(pair_answers) != expected:
        missing = sorted(expected - set(pair_answers))
        extra = sorted(set(pair_answers) - expected)
        raise EstimationError(
            f"pair answers mismatch; missing {missing}, unexpected {extra}"
        )
    if n < 1:
        raise EstimationError(f"n must be >= 1, got {n}")


def _broadcast_tables(tables: np.ndarray, pairs: Sequence[Tuple[int, int]],
                      dimension: int) -> List[np.ndarray]:
    """Reshape each pair's ``(Q, 2, 2)`` table for tensor broadcasting.

    Predicate ``t`` owns tensor axis ``1 + (λ-1-t)`` of the
    ``(Q,) + (2,)*λ`` view of ``z``; for a pair ``(i, j)`` with ``i < j``
    the ``j`` axis precedes the ``i`` axis, so the ``[si, sj]`` table is
    transposed to ``[sj, si]`` before the reshape.
    """
    q = tables.shape[0]
    out = []
    for p, (i, j) in enumerate(pairs):
        ai = 1 + (dimension - 1 - i)
        aj = 1 + (dimension - 1 - j)
        shape = [q] + [1] * dimension
        shape[aj] = 2
        shape[ai] = 2
        out.append(np.ascontiguousarray(
            tables[:, p].transpose(0, 2, 1)).reshape(shape))
    return out


@dataclass(frozen=True)
class LambdaFits:
    """Per-query outcome of one batched Algorithm 4 run (``(Q,)`` arrays).

    ``final_change`` is the L1 distance each ``z`` moved over its last
    sweep, ``residual`` that sweep's constraint residual. Unpacks as
    ``estimates, sweeps, converged``.
    """

    estimates: np.ndarray
    sweeps: np.ndarray
    converged: np.ndarray
    final_change: np.ndarray
    residual: np.ndarray
    threshold: float

    @property
    def infeasible(self) -> np.ndarray:
        """Queries that settled short of their sign tables by >= ``1/n``."""
        return self.converged & (self.residual >= self.threshold)

    def __iter__(self):
        return iter((self.estimates, self.sweeps, self.converged))


def _lambda_ipf(tables: np.ndarray, pairs: Sequence[Tuple[int, int]],
                dimension: int, threshold: float, max_iters: int
                ) -> LambdaFits:
    """Batched iterative-scaling kernel over stacked sign tables.

    Parameters
    ----------
    tables:
        ``(Q, P, 2, 2)`` sign tables, ``tables[q, p]`` indexed
        ``[si, sj]`` for ``pairs[p] = (i, j)``.
    pairs:
        Update order of the ``C(λ, 2)`` pairs within a sweep.
    threshold, max_iters:
        Per-query settling threshold (L1 move per sweep) and sweep cap.

    Fits the ``(Q, 2^λ)`` sign-pattern distributions ``z`` and returns
    each query's estimate ``z[q, all bits set]`` with its diagnostics.
    Settled queries are frozen — removed from the active batch — so every
    query's trajectory is exactly what a solo run would produce.
    """
    q = tables.shape[0]
    size = 1 << dimension
    block = 1 << (dimension - 2)  # entries per (pair, sign) constraint
    z = np.full((q, size), 1.0 / size)
    axis_sets = []
    for i, j in pairs:
        ai = 1 + (dimension - 1 - i)
        aj = 1 + (dimension - 1 - j)
        axis_sets.append(tuple(a for a in range(1, dimension + 1)
                               if a not in (ai, aj)))
    broadcast = _broadcast_tables(tables, pairs, dimension)

    sweeps = np.full(q, max_iters, dtype=np.int64)
    converged = np.zeros(q, dtype=bool)
    final_change = np.zeros(q)
    residual = np.zeros(q)
    active = np.arange(q)
    for sweep in range(1, max_iters + 1):
        if active.size == 0:
            break
        z_act = z[active]
        zi = z_act.reshape((len(active),) + (2,) * dimension)
        sweep_residual = np.zeros(len(active))
        for axes, table in zip(axis_sets, broadcast):
            t = table[active]
            tot = zi.sum(axis=axes, keepdims=True)
            pos = tot > 0.0
            scale = np.divide(t, tot, out=np.ones_like(tot), where=pos)
            contrib = np.where(pos, np.abs(t - tot),
                               np.where(t > 0.0, t, 0.0))
            sweep_residual += contrib.reshape(len(active), -1).sum(axis=1)
            zi *= scale
            refill = (~pos) & (t > 0.0)
            if refill.any():
                zi[...] = np.where(refill, t / block, zi)
        moved = np.abs(z_act - z[active]).sum(axis=1)
        z[active] = z_act
        final_change[active] = moved
        residual[active] = sweep_residual
        done = moved < threshold
        if done.any():
            settled = active[done]
            converged[settled] = True
            sweeps[settled] = sweep
            active = active[~done]
    return LambdaFits(estimates=z[:, -1].copy(), sweeps=sweeps,
                      converged=converged, final_change=final_change,
                      residual=residual, threshold=threshold)


def fit_lambda_query(
        pair_answers: Dict[Tuple[int, int], PairAnswers],
        dimension: int, n: int, max_iters: int = 500
) -> Tuple[float, IPFDiagnostics]:
    """Combine pairwise answers into the λ-D estimate (Algorithm 4).

    Parameters
    ----------
    pair_answers:
        Answers keyed by predicate-position pairs ``(i, j)`` with
        ``0 <= i < j < dimension``; all ``C(λ, 2)`` pairs must be present.
        Pairs are applied in the dict's iteration order.
    dimension:
        λ ≥ 2.
    n:
        Population size (settling threshold ``1/n``).
    max_iters:
        Backstop on full sweeps.

    Returns the estimate plus :class:`IPFDiagnostics`; emits a
    :class:`~repro.errors.ConvergenceWarning` when the sweep cap is hit
    before ``z`` settles.
    """
    _validate_pair_answers(pair_answers, dimension, n)
    pairs = list(pair_answers)
    tables = np.stack([pair_answers[p].as_table() for p in pairs])[None]
    threshold = 1.0 / n
    fits = _lambda_ipf(tables, pairs, dimension, threshold, max_iters)
    diag = IPFDiagnostics(sweeps=int(fits.sweeps[0]),
                          converged=bool(fits.converged[0]),
                          final_change=float(fits.final_change[0]),
                          residual=float(fits.residual[0]),
                          threshold=threshold)
    _warn_non_convergence(f"lambda-query combination (lambda={dimension})",
                          diag)
    return float(fits.estimates[0]), diag


def estimate_lambda_query(
        pair_answers: Dict[Tuple[int, int], PairAnswers],
        dimension: int, n: int, max_iters: int = 500) -> float:
    """Estimate-only convenience over :func:`fit_lambda_query`."""
    estimate, _ = fit_lambda_query(pair_answers, dimension, n,
                                   max_iters=max_iters)
    return estimate


def fit_lambda_queries(
        tables: np.ndarray, dimension: int, n: int, max_iters: int = 500,
        pairs: Optional[Sequence[Tuple[int, int]]] = None
) -> LambdaFits:
    """Batched Algorithm 4: many queries' sign tables in one IPF.

    Parameters
    ----------
    tables:
        ``(Q, C(λ,2), 2, 2)`` stacked sign tables (e.g. from
        :func:`pair_answers_tables`), ``tables[q, p]`` indexed
        ``[si, sj]`` for the ``p``-th pair.
    dimension:
        λ ≥ 2, shared by every query in the batch.
    n:
        Population size (settling threshold ``1/n``).
    max_iters:
        Backstop on full sweeps per query.
    pairs:
        Pair order matching ``tables``'s second axis; defaults to
        :func:`canonical_pairs` (lexicographic).

    Returns :class:`LambdaFits` — the ``(Q,)`` λ-D answers plus per-query
    diagnostics; it unpacks as ``estimates, sweeps, converged``. Each
    query's result is identical to running it alone — settled queries
    freeze while the rest keep sweeping.
    """
    if dimension < 2:
        raise EstimationError(f"dimension must be >= 2, got {dimension}")
    if n < 1:
        raise EstimationError(f"n must be >= 1, got {n}")
    if pairs is None:
        pairs = canonical_pairs(dimension)
    tables = np.asarray(tables, dtype=np.float64)
    expected = (len(pairs), 2, 2)
    if tables.ndim != 4 or tables.shape[1:] != expected:
        raise EstimationError(
            f"tables shape {tables.shape} does not match "
            f"(Q, {len(pairs)}, 2, 2)")
    if sorted(pairs) != canonical_pairs(dimension):
        raise EstimationError(
            f"pairs {sorted(pairs)} do not cover all C({dimension}, 2) "
            f"position pairs")
    return _lambda_ipf(tables, list(pairs), dimension, 1.0 / n, max_iters)
