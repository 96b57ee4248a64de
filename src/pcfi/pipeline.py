"""End-to-end imputation runs and the multi-seed comparison harness.

``impute`` dispatches one method on one masked feature set:

* ``pcfi``: distance-weighted diffusion, then the inter-channel
  correlation pass;
* ``pcfi_stage1_only``: the diffusion stage alone;
* ``fp``: symmetric-normalized diffusion with observed entries reset
  each step (no distance weighting, no channel mixing);
* ``zero``: leave missing entries at zero.

Every method returns an ``ImputeOutcome`` (defined in
:mod:`pcfi.diffusion`): ``fp`` and ``pcfi_stage1_only`` hand on the
diffusion's own outcome, ``pcfi`` the same with stage 2's values.

``ImputationConfig`` holds every setting of a run and the only defaults;
it checks each when made, ``alpha`` only for the methods that read it and
the schedule only for the methods that run one, ``fp`` as the pcfi
methods (``zero`` runs none, so only its mode's name is checked).
``run_facts`` writes the facts of a run (settings, flagged channels,
residuals, steps run) for the ``pcfi impute`` side-car and each
pipeline method block alike.

``run_pipeline`` masks a fully observed matrix under several seeds,
runs each requested method on a masked copy of its own, scores recovery
against the held-out truth, and aggregates across seeds. Each method's
block is :func:`pcfi.metrics.evaluate`'s scores, ``run_facts`` and
timings. Wall-clock timings are recorded only when asked for, so that
reports produced with the same inputs are byte-identical by default.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .confidence import SpdsMatrix, check_alpha, check_beta, compute_spds
from .diffusion import (ImputeOutcome, check_schedule, fp_baseline, impute_stage1,
                        resolve_threads)
from .errors import InputError
from .graph import Graph
from .masking import FeatureSet, apply_mask, check_mask_settings, make_mask
from .metrics import evaluate
from .propagation import propagate_stage2

__all__ = ["ImputationConfig", "impute", "run_pipeline"]

METHODS = ("pcfi", "pcfi_stage1_only", "fp", "zero")
PIPELINE_SCHEMA_VERSION = 2
SIDECAR_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ImputationConfig:
    """Settings of one imputation run. ``alpha`` must lie in (0, 1) for
    ``pcfi`` and ``pcfi_stage1_only``; ``mode`` selects iterative or
    closed-form diffusion, for ``fp`` too; ``lenient_no_source`` zero-fills
    channels with unreachable missing entries instead of erroring;
    ``threads`` is checked for every method."""

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
        if self.method in ("pcfi", "pcfi_stage1_only"):
            check_alpha(self.alpha)
        check_beta(self.beta)
        # zero runs no schedule, so only the name of its mode is checked
        check_schedule(self.mode, 1 if self.method == "zero" else self.steps)
        resolve_threads(self.threads)


def impute(g: Graph, fs: FeatureSet | list[FeatureSet], cfg: ImputationConfig,
           spds: SpdsMatrix | None = None) -> ImputeOutcome:
    """Run one method on one masked feature set.

    A distance field matching the mask may be passed, else it is computed
    once for every method but ``zero``, which reads none. ``fp`` reads it
    to find the channels it cannot fill, which it refuses or, with
    ``lenient_no_source``, flags, as the pcfi methods do, and the rows its
    closed form solves.

    ``fs`` may be handed over in a one-item list, which is emptied: the
    pcfi methods then write stage 1 into ``fs.values`` and stage 2 corrects
    that same array in place, so the masked input becomes the result and
    no second array of its size is made, ``zero`` returns ``fs.values``
    itself, unlocked, and ``fp`` lets them go after its first step or its
    closed form's copy. Passed directly, ``fs`` is left as it is and stage 1
    and ``zero`` work on a copy. Every method returns writable values.
    ``cfg.mode`` is the schedule of ``fp`` and the pcfi methods alike.
    """
    handed_over = isinstance(fs, list)
    if handed_over:
        fs = fs.pop()
    g.check_rows(fs.values)
    if cfg.method == "zero":
        values = fs.given_up_values() if handed_over else fs.values.copy()
        return ImputeOutcome(values=values, residuals=None, flagged_channels=[])
    if spds is None:
        spds = compute_spds(g, fs.known)
    if cfg.method == "fp":
        if handed_over:
            fs = [fs]  # handed over again, so that the set is not held here
        return fp_baseline(g, fs, spds, steps=cfg.steps, mode=cfg.mode,
                           lenient=cfg.lenient_no_source)
    stage1 = impute_stage1(g, fs, spds, cfg.alpha, steps=cfg.steps, mode=cfg.mode,
                           lenient=cfg.lenient_no_source, threads=cfg.threads,
                           overwrite=handed_over)
    del fs
    if cfg.method == "pcfi_stage1_only":
        return stage1
    return dataclasses.replace(
        stage1, values=propagate_stage2(stage1.values, spds, cfg.alpha, cfg.beta))


def _settings(cfg: ImputationConfig) -> dict:
    """The settings a report shows: every field of ``cfg`` but ``threads``,
    which must not change a report's bytes."""
    return {k: v for k, v in dataclasses.asdict(cfg).items() if k != "threads"}


def run_facts(cfg: ImputationConfig, outcome: ImputeOutcome) -> dict:
    """The JSON-ready facts of one run of ``cfg``: ``config`` (the settings
    that were asked for and ran), ``flagged_channels``,
    ``residuals``, ``max_residual`` and ``steps_run``, 0 exactly when no
    iteration ran."""
    residuals = outcome.residuals
    iterated = residuals is not None
    return {
        "config": _settings(cfg),
        "flagged_channels": outcome.flagged_channels,
        "steps_run": cfg.steps if iterated else 0,
        "residuals": residuals.tolist() if iterated else None,
        "max_residual": (float(residuals.max()) if iterated and residuals.size
                         else None),
    }


def plan_runs(cfg: ImputationConfig, mask_kind: str, mask_rate: float, seeds,
              methods) -> tuple[list[int], dict]:
    """The mask seeds as a list and, for each of ``methods``, ``cfg`` with
    that method. Raises :class:`InputError` for an empty list, mask
    settings that :func:`pcfi.masking.check_mask_settings` refuses, a seed
    or method listed twice, an unknown method, or a bad ``alpha`` for a
    method that reads it."""
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise InputError("at least one seed is required")
    for seed in seeds:
        check_mask_settings(mask_kind, mask_rate, seed)
        if seeds.count(seed) > 1:
            raise InputError(f"seed {seed} is listed more than once")
    methods = list(methods)
    if not methods:
        raise InputError("at least one method is required")
    for m in methods:
        if methods.count(m) > 1:
            raise InputError(f"method {m!r} is listed more than once")
    return seeds, {m: dataclasses.replace(cfg, method=m) for m in methods}


def run_pipeline(g: Graph, features: np.ndarray, cfg: ImputationConfig, *,
                 mask_kind: str, mask_rate: float, seeds,
                 methods=("pcfi", "fp", "zero"),
                 collect_timings: bool = False) -> dict:
    """Mask, impute, and score under each seed; aggregate across seeds.

    Each of ``methods`` runs with the settings of ``cfg``, its schedule
    included, in place of its ``method``; the mask settings, seeds and
    methods are checked by :func:`plan_runs` before any work. Each method
    is handed its own masked copy of ``features`` (see :func:`impute`),
    made before its timer starts; ``features`` itself is only read.
    Returns a JSON-ready dict: one block per seed with, per method, the
    :class:`pcfi.metrics.EvalReport` fields (no per-node list and no
    ``schema_version``), the :func:`run_facts` of the run and ``timings``
    (None unless ``collect_timings``), plus the mean/std over those blocks
    of each method's overall RMSE, mean cosine and distance-cosine
    Spearman correlation (seeds where it is None are skipped).
    """
    features = np.asarray(features, dtype=np.float64)
    g.check_rows(features)
    seeds, configs = plan_runs(cfg, mask_kind, mask_rate, seeds, methods)
    n, f = features.shape
    per_seed = []
    for seed in seeds:
        known = make_mask(mask_kind, n, f, mask_rate, seed)
        spds = compute_spds(g, known)
        block = {"seed": seed,
                 "mask": {"kind": mask_kind, "rate": mask_rate, "seed": seed,
                          "num_missing_entries": int((~known).sum())},
                 "methods": {}}
        for method, method_cfg in configs.items():
            # handed over, so the copy becomes or feeds the result
            fs = [apply_mask(features, known)]
            t0 = time.perf_counter()
            outcome = impute(g, fs, method_cfg, spds=spds)
            elapsed = time.perf_counter() - t0
            report = evaluate(features, outcome.values, known, spds)
            scores = report.to_dict(per_node=False)
            del scores["schema_version"]  # the report's own is at its top
            block["methods"][method] = {
                **scores, **run_facts(method_cfg, outcome),
                "timings": {"impute_seconds": elapsed} if collect_timings else None}
            del outcome  # before the next method makes its own
        per_seed.append(block)
        del known, spds, report  # before the next seed's are made

    def _agg(method, key):
        vals = [x for block in per_seed
                if (x := block["methods"][method][key]) is not None]
        if not vals:
            return {"mean": None, "std": None}
        return {"mean": float(np.mean(vals)),
                "std": float(np.std(vals))}

    aggregates = {m: {key: _agg(m, key) for key in
                      ("rmse", "cosine_mean", "spearman_distance_cosine")}
                  for m in configs}
    settings = _settings(cfg)
    del settings["method"]  # each method block names its own
    return {
        "schema_version": PIPELINE_SCHEMA_VERSION,
        "config": {"mask_kind": mask_kind, "mask_rate": mask_rate,
                   "seeds": seeds, "methods": list(configs), **settings},
        "num_nodes": n,
        "num_channels": f,
        "per_seed": per_seed,
        "aggregates": aggregates,
    }

