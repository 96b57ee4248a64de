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
whole-matrix equivalent used here is::

    x_new = x + beta * (1 - xi) * ((xi * (x - mean)) @ R)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confidence import SpdsMatrix, pseudo_confidence
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
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InputError(f"value matrix must be 2-D, got shape {values.shape}")
    n = values.shape[0]
    if n < 2:
        raise InputError(f"correlation needs at least 2 rows, got {n}")
    means = values.mean(axis=0)
    centered = values - means
    cov = centered.T @ centered / (n - 1)
    stds = np.sqrt(np.diag(cov).copy())
    with np.errstate(divide="ignore", invalid="ignore"):
        r = cov / np.outer(stds, stds)
    r[~np.isfinite(r)] = 0.0
    np.fill_diagonal(r, 0.0)
    return CorrelationMatrix(r=r, means=means, stds=stds)


def propagate_stage2(values: np.ndarray, spds: SpdsMatrix, beta: float) -> np.ndarray:
    """Apply the correlation-weighted inter-channel correction.

    ``values`` is the fully filled matrix from the diffusion stage.
    With ``beta == 0``, or with every entry observed (all distances 0),
    the input is returned bit-identical.
    """
    values = np.asarray(values, dtype=np.float64)
    if beta < 0:
        raise InputError(f"beta must be >= 0, got {beta}")
    if values.shape != spds.distances.shape:
        raise InputError(
            f"value shape {values.shape} does not match distance field "
            f"shape {spds.distances.shape}"
        )
    corr = correlation(values)
    xi = pseudo_confidence(spds)
    # values + beta * (1 - xi) * ((xi * (values - means)) @ R), in place with
    # the same operations in the same order, so the bits are the same
    t = values - corr.means
    t *= xi
    out = t @ corr.r
    del t
    np.subtract(1.0, xi, out=xi)
    xi *= beta
    out *= xi
    out += values
    return out
