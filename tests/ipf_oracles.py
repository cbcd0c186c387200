"""Sequential reference loops for Algorithms 3 and 4 (test oracles).

The shipped kernels (:mod:`repro.estimation.response_matrix`,
:mod:`repro.estimation.lambda_query`) apply each grid's — or each pair's —
constraints as one fused update. These loops apply them one constraint at
a time, exactly as the paper states the algorithms, and stop on the same
rule: the L1 distance the iterate moves over one full sweep falls below
``1/n``. The property tests pin the fused kernels to them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.estimation.lambda_query import (
    PairAnswers,
    _lambda_ipf,
    _validate_pair_answers,
    canonical_pairs,
)
from repro.estimation.response_matrix import (
    _initial_matrix,
    _partition_for,
    _trivial_fast_path,
    _validate_fit_inputs,
)
from repro.grids.grid import Grid1D, Grid2D, GridEstimate

#: (row_lo, row_hi_excl, col_lo, col_hi_excl, target_mass)
_Constraint = Tuple[int, int, int, int, float]


def _constraints_for(estimate: GridEstimate, attr_i: int, attr_j: int,
                     di: int, dj: int) -> List[_Constraint]:
    """Rectangle constraints that ``estimate`` imposes on the (i, j) matrix."""
    grid = estimate.grid
    constraints: List[_Constraint] = []
    if isinstance(grid, Grid1D):
        binning = grid.binning
        for cell in range(binning.num_cells):
            lo, hi = binning.bounds(cell)
            mass = float(estimate.frequencies[cell])
            if grid.attr_index == attr_i:
                constraints.append((lo, hi + 1, 0, dj, mass))
            elif grid.attr_index == attr_j:
                constraints.append((0, di, lo, hi + 1, mass))
            else:
                raise EstimationError(
                    f"1-D grid over attribute {grid.attr_index} unrelated "
                    f"to pair ({attr_i}, {attr_j})"
                )
        return constraints

    if not isinstance(grid, Grid2D):
        raise EstimationError(f"unsupported grid type {type(grid).__name__}")
    if grid.attr_index_x == attr_i and grid.attr_index_y == attr_j:
        bx, by, transpose = grid.binning_x, grid.binning_y, False
    elif grid.attr_index_x == attr_j and grid.attr_index_y == attr_i:
        bx, by, transpose = grid.binning_x, grid.binning_y, True
    else:
        raise EstimationError(
            f"2-D grid over {grid.key} unrelated to pair "
            f"({attr_i}, {attr_j})"
        )
    matrix = estimate.matrix()
    for cx in range(bx.num_cells):
        x_lo, x_hi = bx.bounds(cx)
        for cy in range(by.num_cells):
            y_lo, y_hi = by.bounds(cy)
            mass = float(matrix[cx, cy])
            if transpose:
                constraints.append((y_lo, y_hi + 1, x_lo, x_hi + 1, mass))
            else:
                constraints.append((x_lo, x_hi + 1, y_lo, y_hi + 1, mass))
    return constraints


def build_response_matrix_reference(related: Sequence[GridEstimate],
                                    attr_i: int, attr_j: int, di: int,
                                    dj: int, n: int, max_iters: int = 500,
                                    prior: np.ndarray = None) -> np.ndarray:
    """Sequential per-constraint Algorithm 3.

    The fused sweep of :func:`repro.estimation.fit_response_matrix` must
    reproduce this loop to float round-off, because each related grid's
    constraints cover disjoint blocks.
    """
    prior = _validate_fit_inputs(related, di, dj, n, prior)
    fast = _trivial_fast_path(related, attr_i, attr_j)
    if fast is not None:
        return fast

    constraints: List[_Constraint] = []
    for estimate in related:
        constraints.extend(
            _constraints_for(estimate, attr_i, attr_j, di, dj))

    m = _initial_matrix(di, dj, prior)
    threshold = 1.0 / n
    for _ in range(max_iters):
        before = m.copy()
        for row_lo, row_hi, col_lo, col_hi, target in constraints:
            block = m[row_lo:row_hi, col_lo:col_hi]
            total = block.sum()
            if total <= 0.0:
                if target > 0.0:
                    block[:] = target / block.size
                continue
            block *= target / total
        if np.abs(m - before).sum() < threshold:
            break
    return m


def estimate_lambda_query_reference(
        pair_answers: Dict[Tuple[int, int], PairAnswers],
        dimension: int, n: int, max_iters: int = 500) -> float:
    """Per-member-list Algorithm 4.

    The broadcast tensor sweep of :func:`repro.estimation.fit_lambda_query`
    must reproduce this loop to float round-off, because the four sign
    blocks of one pair partition ``z`` (disjoint member sets), making the
    fused rescale order-equivalent.
    """
    _validate_pair_answers(pair_answers, dimension, n)

    size = 1 << dimension
    z = np.full(size, 1.0 / size)
    masks = np.arange(size)
    # Per pair and sign combination, the member index arrays (fancy
    # indexing is markedly faster than boolean masks here).
    updates = []
    for (i, j), answers in pair_answers.items():
        table = answers.as_table()
        bit_i = (masks >> i) & 1
        bit_j = (masks >> j) & 1
        for si in (0, 1):
            for sj in (0, 1):
                members = np.flatnonzero((bit_i == si) & (bit_j == sj))
                updates.append((members, float(table[si, sj])))

    threshold = 1.0 / n
    for _ in range(max_iters):
        before = z.copy()
        for members, target in updates:
            block = z[members]
            total = block.sum()
            if total <= 0.0:
                if target > 0.0:
                    z[members] = target / len(members)
                continue
            z[members] = block * (target / total)
        if np.abs(z - before).sum() < threshold:
            break
    return float(z[size - 1])


def response_matrix_after(related: Sequence[GridEstimate], attr_i: int,
                          attr_j: int, di: int, dj: int, sweeps: int,
                          prior: np.ndarray = None) -> np.ndarray:
    """The fused Algorithm 3 iterate after exactly ``sweeps`` sweeps."""
    partitions = [_partition_for(estimate, attr_i, attr_j, di, dj)
                  for estimate in related]
    m = _initial_matrix(di, dj, prior)
    for _ in range(sweeps):
        for partition in partitions:
            partition.apply(m)
    return m


def lambda_estimates_after(tables: np.ndarray, dimension: int,
                           sweeps: int) -> np.ndarray:
    """Fused Algorithm 4 estimates after exactly ``sweeps`` sweeps."""
    return _lambda_ipf(tables, canonical_pairs(dimension), dimension, 0.0,
                       sweeps).estimates
