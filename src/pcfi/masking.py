"""Feature containers and missing-entry simulation.

A :class:`FeatureSet` couples an N x F value matrix with a boolean mask
of the same shape; ``known[i, d]`` is True where the value is observed.
Unknown entries are stored as 0.0 so the matrix can be fed directly to
the imputation operators.

Two protocols remove entries from a fully observed matrix:

* structural: whole feature rows are removed, so every channel shares
  one missing set;
* uniform: entries are removed independently across the N x F grid.

Both draw one uniform per candidate (PCG64 stream) and remove the
``count`` candidates with the smallest draws, ties going to the lower
index, so a given seed selects the same entries on any platform. The
``count``-th smallest draw is found by linear-time selection
(``np.partition``), not by sorting every draw.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["FeatureSet", "structural_mask", "uniform_mask", "apply_mask"]

MASK_KINDS = ("structural", "uniform")


@dataclass(frozen=True)
class FeatureSet:
    """Node feature matrix with an observedness mask.

    Both arrays are made read-only. A set handed over to
    :func:`pcfi.pipeline.impute` in a list is given up: the pcfi methods
    write their result into its ``values``, and ``zero`` returns them.

    Attributes
    ----------
    values : ndarray of float64, shape (N, F)
        Feature values; exactly 0.0 wherever ``known`` is False.
    known : ndarray of bool, shape (N, F)
        True where the entry is observed.
    """

    values: np.ndarray
    known: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        known = np.ascontiguousarray(self.known, dtype=bool)
        if values.ndim != 2:
            raise InputError(f"feature matrix must be 2-D, got shape {values.shape}")
        check_mask_shape(values, known)
        if not np.isfinite(values).all():
            raise InputError("feature matrix contains non-finite entries")
        if np.logical_and(values, ~known).any():
            raise InputError("unknown entries must be stored as 0.0")
        values.setflags(write=False)
        known.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "known", known)

    def given_up_values(self) -> np.ndarray:
        """``values`` unlocked for a caller that gives the set up, else a copy."""
        try:
            self.values.setflags(write=True)
        except ValueError:  # memory the array does not own and may not write
            return self.values.copy()
        return self.values

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def num_channels(self) -> int:
        return self.values.shape[1]


def check_mask_shape(values: np.ndarray, known: np.ndarray) -> None:
    """Raise :class:`InputError` unless the mask has the features' shape."""
    if known.shape != values.shape:
        raise InputError(
            f"mask shape {known.shape} does not match feature shape {values.shape}"
        )


def _select(rng: np.random.Generator, population: int, count: int) -> np.ndarray:
    """Boolean selection of ``count`` of ``range(population)``: draw one
    uniform per candidate and keep the ``count`` smallest, ties at the
    largest kept draw going to the lowest indices (the first ``count`` of
    a stable sort)."""
    draws = rng.random(population)
    if count == 0:
        return np.zeros(population, dtype=bool)
    pivot = np.partition(draws, count - 1)[count - 1]
    chosen = draws < pivot
    ties = count - np.count_nonzero(chosen)
    chosen[np.flatnonzero(draws == pivot)[:ties]] = True
    return chosen


def check_seed(seed: int) -> None:
    """Refuse a seed that is not an integer, or a negative one, which the
    PCG64 stream cannot take."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")


def check_mask_settings(kind: str, rate: float, seed: int) -> None:
    """Raise :class:`InputError` unless ``kind`` is one of ``MASK_KINDS``,
    ``rate`` lies in (0, 1) and ``seed`` is a non-negative integer: the
    settings of a mask, checked before the shape that it is drawn for is
    known."""
    if kind not in MASK_KINDS:
        raise InputError(f"unknown mask kind {kind!r}")
    if not (0.0 < rate < 1.0):
        raise InputError(f"mask rate must lie in (0, 1), got {rate}")
    check_seed(seed)


def _draw(kind: str, num_nodes: int, num_channels: int, rate: float,
          seed: int) -> np.ndarray:
    """The removed candidates of a ``kind`` mask: ``round(rate * P)`` of
    the P = N rows (structural) or P = N * F entries (uniform), halves
    rounded up, drawn by :func:`_select` from the seed's PCG64 stream.

    Raises
    ------
    InputError
        If a dimension is below 1, the seed is not a non-negative
        integer, the rate lies outside (0, 1), or the rounded count would
        remove every candidate.
    """
    check_mask_settings(kind, rate, seed)
    # each dimension on its own: the product of two negatives is positive,
    # and every reader refuses a matrix of no rows or no channels
    if num_nodes < 1 or num_channels < 1:
        raise InputError(f"each mask dimension must be at least 1, got "
                         f"({num_nodes}, {num_channels})")
    rows = kind == "structural"
    total = num_nodes if rows else num_nodes * num_channels
    count = int(np.floor(rate * total + 0.5))
    if count >= total:
        raise InputError(f"{kind} rate {rate} removes all {total} "
                         f"{'rows' if rows else 'entries'}; no entries "
                         "would remain observed")
    return _select(np.random.Generator(np.random.PCG64(seed)), total, count)


def structural_mask(num_nodes: int, num_channels: int, rate: float,
                    seed: int = 0) -> np.ndarray:
    """Boolean known-mask with ``round(rate * N)`` whole rows set False;
    raises :class:`InputError` as :func:`_draw` does."""
    missing_rows = _draw("structural", num_nodes, num_channels, rate, seed)
    known = np.ones((num_nodes, num_channels), dtype=bool)
    known[missing_rows] = False
    return known


def uniform_mask(num_nodes: int, num_channels: int, rate: float,
                 seed: int = 0) -> np.ndarray:
    """Boolean known-mask with ``round(rate * N * F)`` entries set False,
    drawn uniformly over the flattened grid; raises :class:`InputError`
    as :func:`_draw` does."""
    known = _draw("uniform", num_nodes, num_channels, rate, seed)
    np.logical_not(known, out=known)
    return known.reshape(num_nodes, num_channels)


def make_mask(kind: str, num_nodes: int, num_channels: int, rate: float,
              seed: int) -> np.ndarray:
    """The known-mask of ``kind``, one of ``MASK_KINDS``: a
    :func:`structural_mask` or a :func:`uniform_mask`."""
    check_mask_settings(kind, rate, seed)
    # called by name, not from a table, so a rebinding of them here is seen
    if kind == "structural":
        return structural_mask(num_nodes, num_channels, rate, seed)
    return uniform_mask(num_nodes, num_channels, rate, seed)


def apply_mask(values: np.ndarray, known: np.ndarray) -> FeatureSet:
    """Zero the unknown entries of ``values`` and wrap in a FeatureSet."""
    values = np.asarray(values, dtype=np.float64)
    known = np.asarray(known, dtype=bool)
    check_mask_shape(values, known)
    masked = np.where(known, values, 0.0)
    return FeatureSet(values=masked, known=known)
