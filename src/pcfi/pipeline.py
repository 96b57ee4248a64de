"""End-to-end imputation runs and the multi-seed comparison harness.

``impute`` dispatches one method on one masked feature set:

* ``pcfi``: distance-weighted diffusion, then the inter-channel
  correlation pass;
* ``pcfi_stage1_only``: the diffusion stage alone;
* ``fp``: symmetric-normalized diffusion with observed entries reset
  each step (no distance weighting, no channel mixing);
* ``zero``: leave missing entries at zero.

``run_pipeline`` masks a fully observed matrix under several seeds,
runs each requested method, scores recovery against the held-out truth,
and aggregates across seeds. Wall-clock timings are recorded only when
asked for, so that reports produced with the same inputs are
byte-identical by default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .confidence import SpdsMatrix, compute_spds
from .diffusion import DiffusionResult, fp_baseline, impute_stage1
from .errors import InputError
from .graph import Graph
from .masking import FeatureSet, apply_mask, structural_mask, uniform_mask
from .metrics import evaluate
from .propagation import propagate_stage2

__all__ = ["ImputationConfig", "ImputeOutcome", "impute", "run_pipeline"]

METHODS = ("pcfi", "pcfi_stage1_only", "fp", "zero")
PIPELINE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ImputationConfig:
    """Knobs for one imputation run. ``mode`` selects iterative or
    closed-form diffusion; ``lenient_no_source`` zero-fills channels
    with unreachable missing entries instead of erroring."""

    alpha: float = 0.8
    beta: float = 1e-3
    steps: int = 100
    method: str = "pcfi"
    mode: str = "iterative"
    lenient_no_source: bool = False
    threads: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        if self.method in ("pcfi", "pcfi_stage1_only") and not (0.0 < self.alpha < 1.0):
            raise InputError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.beta < 0:
            raise InputError(f"beta must be >= 0, got {self.beta}")
        if self.mode not in ("iterative", "closed_form"):
            raise InputError(f"unknown diffusion mode {self.mode!r}")
        if self.mode == "iterative" and self.steps < 1:
            raise InputError(f"steps must be >= 1, got {self.steps}")

    def summary(self) -> dict:
        return {"method": self.method, "alpha": self.alpha, "beta": self.beta,
                "steps": self.steps, "mode": self.mode,
                "lenient_no_source": self.lenient_no_source}


@dataclass(frozen=True)
class ImputeOutcome:
    """Imputed values plus the intermediates a caller may want to
    inspect or serialize (distance field, diffusion bookkeeping)."""

    values: np.ndarray
    spds: SpdsMatrix | None
    stage1: DiffusionResult | None
    flagged_channels: list
    config: ImputationConfig


def impute(g: Graph, fs: FeatureSet | list[FeatureSet], cfg: ImputationConfig,
           spds: SpdsMatrix | None = None) -> ImputeOutcome:
    """Run one method on one masked feature set.

    A precomputed distance field may be passed to avoid recomputing it
    across methods; it must match the mask and use ``cfg.alpha``.

    ``fs`` may be handed over in a one-item list, which is emptied: with
    no other reference left to it, the masked input is then freed once
    stage 1 has read it, before stage 2 allocates two arrays of its size.
    """
    if isinstance(fs, list):
        fs = fs.pop()
    if cfg.method == "zero":
        return ImputeOutcome(values=fs.values.copy(), spds=None, stage1=None,
                             flagged_channels=[], config=cfg)
    if cfg.method == "fp":
        res = fp_baseline(g, fs, steps=cfg.steps)
        return ImputeOutcome(values=res.values, spds=None, stage1=res,
                             flagged_channels=list(res.flagged_channels),
                             config=cfg)
    if spds is None:
        spds = compute_spds(g, fs.known, cfg.alpha)
    elif spds.alpha != cfg.alpha:
        raise InputError(
            f"precomputed distance field uses alpha={spds.alpha}, "
            f"config says {cfg.alpha}"
        )
    stage1 = impute_stage1(g, fs, spds, steps=cfg.steps, mode=cfg.mode,
                           lenient=cfg.lenient_no_source, threads=cfg.threads)
    del fs
    values = stage1.values
    if cfg.method == "pcfi":
        values = propagate_stage2(values, spds, cfg.beta)
    return ImputeOutcome(values=values, spds=spds, stage1=stage1,
                         flagged_channels=list(stage1.flagged_channels),
                         config=cfg)


def _make_mask(kind: str, n: int, f: int, rate: float, seed: int) -> np.ndarray:
    if kind == "structural":
        return structural_mask(n, f, rate, seed)
    if kind == "uniform":
        return uniform_mask(n, f, rate, seed)
    raise InputError(f"unknown mask kind {kind!r}")


def run_pipeline(g: Graph, features: np.ndarray, *, mask_kind: str,
                 mask_rate: float, seeds, methods=("pcfi", "fp", "zero"),
                 alpha: float = 0.8, beta: float = 1e-3, steps: int = 100,
                 mode: str = "iterative", lenient_no_source: bool = False,
                 threads: int | None = None,
                 collect_timings: bool = False) -> dict:
    """Mask, impute, and score under each seed; aggregate across seeds.

    Returns a JSON-ready dict: one block per seed with per-method
    metrics, plus mean/std aggregates of the overall RMSE and cosine.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != g.num_nodes:
        raise InputError(
            f"feature shape {features.shape} does not match graph with "
            f"{g.num_nodes} nodes"
        )
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise InputError("at least one seed is required")
    for m in methods:
        if m not in METHODS:
            raise InputError(f"unknown method {m!r}; expected one of {METHODS}")

    n, f = features.shape
    per_seed = []
    collected: dict[str, dict[str, list]] = {
        m: {"rmse": [], "cosine_mean": [], "spearman": []} for m in methods
    }
    for seed in seeds:
        known = _make_mask(mask_kind, n, f, mask_rate, seed)
        fs = apply_mask(features, known)
        spds = compute_spds(g, known, alpha)
        block = {"seed": seed,
                 "mask": {"kind": mask_kind, "rate": mask_rate, "seed": seed,
                          "num_missing_entries": int((~known).sum())},
                 "methods": {}}
        for method in methods:
            cfg = ImputationConfig(alpha=alpha, beta=beta, steps=steps,
                                   method=method, mode=mode,
                                   lenient_no_source=lenient_no_source,
                                   threads=threads)
            t0 = time.perf_counter()
            outcome = impute(g, fs, cfg, spds=spds if method not in ("fp", "zero") else None)
            elapsed = time.perf_counter() - t0
            report = evaluate(features, outcome.values, known, spds,
                              config=cfg.summary(),
                              flagged_channels=outcome.flagged_channels,
                              timings={"impute_seconds": elapsed}
                              if collect_timings else None)
            block["methods"][method] = report.to_dict(per_node=False)
            collected[method]["rmse"].append(report.rmse)
            collected[method]["cosine_mean"].append(report.cosine_mean)
            collected[method]["spearman"].append(report.spearman_distance_cosine)
        per_seed.append(block)

    def _agg(xs):
        vals = [x for x in xs if x is not None]
        if not vals:
            return {"mean": None, "std": None}
        return {"mean": float(np.mean(vals)),
                "std": float(np.std(vals))}

    aggregates = {
        m: {"rmse": _agg(collected[m]["rmse"]),
            "cosine_mean": _agg(collected[m]["cosine_mean"]),
            "spearman_distance_cosine": _agg(collected[m]["spearman"])}
        for m in methods
    }
    return {
        "schema_version": PIPELINE_SCHEMA_VERSION,
        "config": {"mask_kind": mask_kind, "mask_rate": mask_rate,
                   "seeds": seeds, "methods": list(methods), "alpha": alpha,
                   "beta": beta, "steps": steps, "mode": mode,
                   "lenient_no_source": lenient_no_source},
        "num_nodes": n,
        "num_channels": f,
        "per_seed": per_seed,
        "aggregates": aggregates,
    }
