"""Inter-channel value propagation through feature correlations.

After the node-wise diffusion fills every entry, each low-certainty
entry is nudged by the other channels of the same node. The recipe per
node ``i``::

    B_ab = beta * (1 - xi[i, a]) * xi[i, b] * R[a, b]   (a != b, 0 diag)
    x_new[i] = x[i] + B @ (x[i] - mean)

where ``xi = alpha ** S`` is the pseudo-confidence and ``R`` the Pearson
correlation between channels of the diffused matrix (non-finite entries
zeroed, diagonal zeroed). Uncertain targets (small ``xi[i, a]``) absorb
more, certain sources (large ``xi[i, b]``) contribute more, and the
correction scales with the deviation of the source channel from its
mean. ``beta`` is small so corrections stay gentle.

The per-node form above is quadratic in channels per node; the
whole-matrix equivalent used here, evaluated one block of rows at a
time, is::

    x_new = x + beta * (1 - xi) * ((xi * (x - mean)) @ R)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confidence import (SpdsMatrix, check_alpha, check_beta, confidence_rows,
                         row_blocks)
from .errors import InputError

__all__ = ["correlation", "propagate_stage2"]


@dataclass(frozen=True)
class CorrelationMatrix:
    """Channel-by-channel Pearson correlation with zeroed diagonal.

    ``r`` is symmetric with zeros on the diagonal and wherever a channel
    has zero variance; ``means`` and ``stds`` are the per-channel
    moments used to compute it (stds with the N-1 denominator).
    """

    r: np.ndarray
    means: np.ndarray
    stds: np.ndarray


def correlation(values: np.ndarray) -> CorrelationMatrix:
    """Pearson correlation between the columns of ``values``.

    Zero-variance channels yield zero rows/columns instead of NaN; the
    diagonal is zeroed because a channel never propagates into itself.

    Raises
    ------
    InputError
        If fewer than 2 rows (correlation undefined).
    """
    return _centered_correlation(values)[1]


def _centered_correlation(values: np.ndarray) -> tuple[np.ndarray, CorrelationMatrix]:
    """``values - means`` as a new array the caller may overwrite (stage 2
    turns it into its result), and the correlation of ``values`` computed
    from it."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InputError(f"value matrix must be 2-D, got shape {values.shape}")
    n, f = values.shape
    if n < 2:
        raise InputError(f"correlation needs at least 2 rows, got {n}")
    means = values.mean(axis=0)
    centered = values - means
    # cov / (n - 1) / outer(stds, stds), each step in place; the outer
    # product is built one row block at a time, never as a whole F x F array
    r = centered.T @ centered
    r /= n - 1
    stds = np.sqrt(np.diag(r).copy())
    for rows in row_blocks(f, f):
        block = r[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            block /= np.outer(stds[rows], stds)
        block[~np.isfinite(block)] = 0.0
    np.fill_diagonal(r, 0.0)
    return centered, CorrelationMatrix(r=r, means=means, stds=stds)


def propagate_stage2(values: np.ndarray, spds: SpdsMatrix, alpha: float,
                     beta: float) -> np.ndarray:
    """Apply the correlation-weighted inter-channel correction.

    ``values`` is the fully filled matrix from the diffusion stage, with
    confidences ``alpha ** S`` for ``alpha`` in (0, 1); ``beta`` must be
    finite and >= 0. With ``beta == 0``, or with every entry observed
    (all distances 0), a bit-identical copy is returned.

    Otherwise the rows are corrected in the blocks of
    ``confidence.row_blocks``, and each block's rows are, bit for bit,
    ``values + beta * (1 - xi) * ((xi * (values - means)) @ R)`` evaluated
    on those rows alone, with the whole matrix's ``means`` and ``R``. When
    one block covers the matrix these are the whole-matrix bits; across
    blocks, BLAS may round a block's product differently in the last bits.
    One array of the input's size is alive besides the input: it holds
    ``values - means`` and becomes the result, block by block.
    """
    values = np.asarray(values, dtype=np.float64)
    check_alpha(alpha)
    check_beta(beta)
    if values.shape != spds.distances.shape:
        raise InputError(
            f"value shape {values.shape} does not match distance field "
            f"shape {spds.distances.shape}"
        )
    if beta == 0 or not spds.distances.any():
        return values.copy()
    out, corr = _centered_correlation(values)
    for rows, xi in confidence_rows(spds, alpha):
        block = out[rows]
        block *= xi
        product = block @ corr.r
        np.subtract(1.0, xi, out=xi)
        xi *= beta
        product *= xi
        np.add(product, values[rows], out=block)
    return out
