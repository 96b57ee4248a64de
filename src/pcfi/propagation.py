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

import numpy as np

from .confidence import (SpdsMatrix, check_alpha, check_beta, confidence_rows,
                         row_blocks)
from .errors import InputError

__all__ = ["correlation", "propagate_stage2"]

# Columns of R summed by one product in ``correlation``: a strip is
# GRAM_STRIP x F floats, far less than a second F x F array.
GRAM_STRIP = 256


def correlation(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation between the columns of ``values``, as
    ``(r, means)``: ``r`` is symmetric, and ``means`` are the per-channel
    means it was computed about.

    Zero-variance channels yield zero rows/columns instead of NaN; the
    diagonal is zeroed because a channel never propagates into itself.

    The Gram matrix of ``c = values - means`` is summed over the
    ``confidence.row_blocks`` of ``c``, its upper triangle in strips of
    ``GRAM_STRIP`` columns, and then mirrored, so no array of the input's
    size is made: one F x F array, one strip product and one row block.
    For a fixed block size the bits repeat; against the whole ``c.T @ c``
    the sums run in another order, so R may differ in the last bits.

    Raises
    ------
    InputError
        If fewer than 2 rows (correlation undefined).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InputError(f"value matrix must be 2-D, got shape {values.shape}")
    n, f = values.shape
    if n < 2:
        raise InputError(f"correlation needs at least 2 rows, got {n}")
    means = values.mean(axis=0)
    r = np.zeros((f, f))
    for rows in row_blocks(n, f):
        c = values[rows] - means
        for lo in range(0, f, GRAM_STRIP):
            r[lo:lo + GRAM_STRIP, lo:] += c[:, lo:lo + GRAM_STRIP].T @ c[:, lo:]
    for lo in range(0, f, GRAM_STRIP):
        hi = lo + GRAM_STRIP
        r[hi:, lo:hi] = r[lo:hi, hi:].T
        square = r[lo:hi, lo:hi]
        lower = np.tri(len(square), k=-1, dtype=bool)
        square[lower] = square.T[lower]
    # cov / (n - 1) / outer(stds, stds), each step in place; the outer
    # product is built one row block at a time, never as a whole F x F array
    r /= n - 1
    stds = np.sqrt(np.diag(r).copy())
    for rows in row_blocks(f, f):
        block = r[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            block /= np.outer(stds[rows], stds)
        block[~np.isfinite(block)] = 0.0
    np.fill_diagonal(r, 0.0)
    return r, means


def propagate_stage2(values: np.ndarray, spds: SpdsMatrix, alpha: float,
                     beta: float) -> np.ndarray:
    """Apply the correlation-weighted inter-channel correction to
    ``values`` in place, and return it.

    ``values`` is the fully filled matrix from the diffusion stage, with
    confidences ``alpha ** S`` for ``alpha`` in (0, 1); ``beta`` must be
    finite and >= 0. The caller gives the matrix up: a float64 array is
    overwritten (any other is converted to a new array first), so it must
    be writable. With ``beta == 0``, or with every entry observed (all
    distances 0), it is returned unchanged.

    Otherwise ``R`` and ``means`` come from :func:`correlation` of the whole
    matrix, and then the rows are corrected in the blocks of
    ``confidence.row_blocks``: each block's rows become, bit for bit,
    ``values + beta * (1 - xi) * ((xi * (values - means)) @ R)`` evaluated
    on those rows alone. Besides ``values`` and ``R``, only a few row
    blocks are alive at a time.
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
        return values
    if not values.flags.writeable:
        raise InputError("stage 2 overwrites its value matrix, which is read-only")
    r, means = correlation(values)
    for rows, xi in confidence_rows(spds, alpha):
        c = values[rows] - means
        c *= xi
        product = c @ r
        np.subtract(1.0, xi, out=xi)
        xi *= beta
        product *= xi
        values[rows] += product
    return values
