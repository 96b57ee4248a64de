"""Recovery quality evaluation against held-out ground truth.

Error is measured only where entries were actually missing: a global
RMSE, a per-channel RMSE, and a per-node cosine similarity between the
true and imputed feature rows (restricted to nodes that had at least
one missing entry). Nodes are additionally bucketed by how far they sit
from observed information (the largest finite distance-to-source across
their channels), which exposes how recovery quality decays with
distance; a Spearman rank correlation between that distance and the
per-node cosine summarizes the trend in one number.

Every score comes from one N x F buffer. It holds the squared errors
first: the global and per-bucket RMSE read their missing entries from it
in row-major order, and the per-channel RMSE sums its columns. Then it
holds the row products behind the cosines. A call holds about two N x F
arrays under either mask kind.

The report holds scores only: the facts of the run that produced
``imputed`` come from :func:`pcfi.pipeline.run_facts`. A pipeline method
block is these scores and those facts, without this ``schema_version``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confidence import UNREACHABLE, SpdsMatrix
from .errors import InputError

__all__ = ["EvalReport", "evaluate"]

SCHEMA_VERSION = 1


def check_shapes(truth: np.ndarray, imputed: np.ndarray, known: np.ndarray) -> None:
    """Raise :class:`InputError` unless the three arrays have one shape."""
    if truth.shape != imputed.shape or truth.shape != known.shape:
        raise InputError(f"shape mismatch: truth {truth.shape}, imputed "
                         f"{imputed.shape}, mask {known.shape}")


@dataclass(frozen=True)
class EvalReport:
    """Recovery metrics; ``to_dict`` gives the JSON-ready form.

    ``rmse_per_channel`` holds NaN for channels with no missing entries
    (serialized as null). ``cosine_per_node`` has one entry per node:
    the full-row cosine for nodes with at least one missing entry, NaN
    (serialized as null) for fully observed nodes and for nodes skipped
    because either row has zero norm (``num_skipped_zero_norm`` counts
    the skips); ``cosine_mean`` averages the defined entries.
    ``distance_buckets`` maps the node's largest finite
    distance-to-source to count/cosine/rmse aggregates;
    ``spearman_distance_cosine`` is the rank correlation between bucket
    distance and bucket mean cosine (None with fewer than two usable
    buckets or when every bucket cosine ties); tied cosines share the
    average of their rank positions, as in ``scipy.stats.rankdata``'s
    ``"average"`` rule.
    """

    rmse: float | None
    rmse_per_channel: np.ndarray
    cosine_mean: float | None
    cosine_per_node: np.ndarray
    num_eval_nodes: int
    num_skipped_zero_norm: int
    distance_buckets: dict
    spearman_distance_cosine: float | None
    num_unbucketed_nodes: int

    def to_dict(self, per_node: bool = True) -> dict:
        """JSON-ready dict; ``per_node=False`` drops the length-N
        cosine list (summary aggregation in multi-seed reports)."""
        per_channel = [None if np.isnan(v) else float(v)
                       for v in self.rmse_per_channel]
        out = {
            "schema_version": SCHEMA_VERSION,
            "rmse": self.rmse,
            "rmse_per_channel": per_channel,
            "cosine_mean": self.cosine_mean,
            "num_eval_nodes": self.num_eval_nodes,
            "num_skipped_zero_norm": self.num_skipped_zero_norm,
            "distance_buckets": {str(k): v for k, v in
                                 sorted(self.distance_buckets.items())},
            "spearman_distance_cosine": self.spearman_distance_cosine,
            "num_unbucketed_nodes": self.num_unbucketed_nodes,
        }
        if per_node:
            out["cosine_per_node"] = [None if np.isnan(v) else float(v)
                                      for v in self.cosine_per_node]
        return out


def _spearman_sorted(ys: np.ndarray) -> float:
    """Spearman correlation of ``ys`` against its position order, for
    keys that are already distinct and sorted: the Pearson correlation
    of ranks ``1..n`` with the average ranks of ``ys``."""
    order = np.argsort(ys, kind="stable")
    sorted_ys = ys[order]
    starts = np.flatnonzero(np.r_[True, sorted_ys[1:] != sorted_ys[:-1]])
    ends = np.r_[starts[1:], ys.size]
    ranks = np.empty(ys.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    # [1, 0], not [0, 1]: the two differ in the last bit, and this one is
    # the element scipy.stats.spearmanr returns
    return float(np.corrcoef(np.arange(1.0, ys.size + 1.0), ranks)[1, 0])


def evaluate(truth: np.ndarray, imputed: np.ndarray, known: np.ndarray,
             spds: SpdsMatrix | None = None) -> EvalReport:
    """Score ``imputed`` against ``truth`` on the entries missing per
    ``known``. Distance buckets and the distance/cosine trend are
    included when ``spds`` is given; it must be 0 exactly at the observed
    entries (:meth:`SpdsMatrix.check_mask`)."""
    # C order: a reduction's summation order, and so its bits, follow the
    # layout; only inputs in another layout are copied
    truth = np.ascontiguousarray(truth, dtype=np.float64)
    imputed = np.ascontiguousarray(imputed, dtype=np.float64)
    known = np.asarray(known, dtype=bool)
    check_shapes(truth, imputed, known)
    if spds is not None:
        spds.check_mask(known)
    n, f = truth.shape
    missing = ~known

    # the one N x F buffer: squared errors, then row products
    buf = truth - imputed
    buf *= buf
    # every RMSE reads its squares in row-major order, as the overall one
    # does; the overall one's 1-D copy is the call's largest temporary
    overall = float(np.sqrt(np.mean(buf[missing]))) if missing.any() else None
    eval_rows = missing.any(axis=1)
    eval_nodes = np.flatnonzero(eval_rows)
    buckets: dict[int, dict] = {}
    unbucketed = 0
    if spds is not None and eval_nodes.size:
        # each node's largest finite distance, UNREACHABLE (-1) if none is
        keys = spds.distances.max(axis=1)[eval_nodes]
        unbucketed = int(np.count_nonzero(keys == UNREACHABLE))
        for k in np.unique(keys[keys != UNREACHABLE]):
            rows = np.zeros(n, dtype=bool)
            rows[eval_nodes[keys == k]] = True
            buckets[int(k)] = {
                "count": int(np.count_nonzero(rows)),
                "rmse": float(np.sqrt(np.mean(buf[missing & rows[:, None]]))),
            }

    per_channel = np.full(f, np.nan)
    counts = missing.sum(axis=0)
    buf[known] = 0.0
    col_sq = buf.sum(axis=0)
    has = counts > 0
    per_channel[has] = np.sqrt(col_sq[has] / counts[has])

    # Row norms and dot products, each summed along a C-contiguous row as
    # np.linalg.norm and np.sum do. Only rows with a missing entry are
    # multiplied; every other row is fully known and so holds zeros.
    where = eval_rows[:, None]
    np.multiply(truth, truth, out=buf, where=where)
    na = np.sqrt(buf.sum(axis=1)[eval_nodes])
    np.multiply(imputed, imputed, out=buf, where=where)
    nb = np.sqrt(buf.sum(axis=1)[eval_nodes])
    np.multiply(truth, imputed, out=buf, where=where)
    dots = buf.sum(axis=1)[eval_nodes]
    del buf
    ok = (na > 0) & (nb > 0)
    cosines = np.full(eval_nodes.size, np.nan)
    cosines[ok] = dots[ok] / (na[ok] * nb[ok])
    skipped = int(eval_nodes.size - ok.sum())
    cosine_mean = float(np.nanmean(cosines)) if ok.any() else None
    cosine_per_node = np.full(n, np.nan)
    cosine_per_node[eval_nodes] = cosines

    for k, bucket in buckets.items():
        bucket_cos = cosines[keys == k]
        bucket["cosine_mean"] = (float(np.nanmean(bucket_cos))
                                 if np.isfinite(bucket_cos).any() else None)
    ys = np.array([v["cosine_mean"] for _, v in sorted(buckets.items())
                   if v["cosine_mean"] is not None])
    # rank correlation is undefined when every bucket cosine ties
    spearman = (_spearman_sorted(ys) if ys.size >= 2 and ys.max() > ys.min()
                else None)

    return EvalReport(
        rmse=overall,
        rmse_per_channel=per_channel,
        cosine_mean=cosine_mean,
        cosine_per_node=cosine_per_node,
        num_eval_nodes=int(eval_nodes.size),
        num_skipped_zero_norm=skipped,
        distance_buckets=buckets,
        spearman_distance_cosine=spearman,
        num_unbucketed_nodes=unbucketed,
    )
