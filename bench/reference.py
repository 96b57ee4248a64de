"""Reference computations that check the CLI's outputs.

Nothing here imports ``pcfi``: the distance field, the K-step diffusion,
the stage-2 correction, the masks and the baselines are recomputed from
the files the CLI read and wrote, so a fast path that changes the answer
fails the check instead of passing it.

Stage 1 is the paper's iteration written as one sparse product per step
over all channels at once::

    X <- ((A+I) (C * X)) / ((A+I) C),   C = alpha ** S,

with the observed entries re-pinned after each step. Row normalization
cancels the ``alpha ** -S_i`` factor of the per-channel operator, so
this equals the per-pattern operators the program builds.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

# CSV floats carry 9 significant digits, so rounding alone moves a value by
# up to 5e-9 of itself; the absolute term covers entries near zero, where the
# reference and the program sum in different orders.
REL_TOL = 1e-8
ABS_TOL = 1e-9


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def adjacency(edges_path, num_nodes: int) -> sparse.csr_array:
    """Symmetric 0/1 adjacency (no self-loops) from an edge list."""
    edges = np.loadtxt(edges_path, dtype=np.int64, ndmin=2).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sparse.csr_array((np.ones(rows.size), (rows, cols)),
                           shape=(num_nodes, num_nodes))
    adj.sum_duplicates()
    adj.data[:] = 1.0
    return adj


def num_components(adj) -> int:
    return int(csgraph.connected_components(adj, directed=False)[0])


def largest_component(adj) -> np.ndarray:
    """Node ids of the largest component; a tie goes to the component
    holding the smallest node id."""
    count, labels = csgraph.connected_components(adj, directed=False)
    sizes = np.bincount(labels, minlength=count)
    first = np.full(count, labels.size)
    np.minimum.at(first, labels, np.arange(labels.size))
    tied = np.flatnonzero(sizes == sizes.max())
    best = tied[np.argmin(first[tied])]
    return np.flatnonzero(labels == best)


def distances(adj, known: np.ndarray) -> np.ndarray:
    """Hop distance to the nearest observed entry, per channel (-1 where
    none is reachable): a frontier expansion over all channels at once."""
    dist = np.where(known, 0, -1).astype(np.int64)
    reached = known.copy()
    frontier = known
    level = 0
    while frontier.any():
        level += 1
        frontier = ((adj @ frontier.astype(np.float64)) > 0) & ~reached
        dist[frontier] = level
        reached |= frontier
    return dist


def stage1(adj, x0: np.ndarray, known: np.ndarray, conf: np.ndarray,
           steps: int) -> np.ndarray:
    """K steps of the pinned confidence-weighted iteration. Channels are
    independent, so the columns are split in two halves run side by side."""
    ai = (adj + sparse.eye_array(adj.shape[0], format="csr")).tocsr()

    def run(cols):
        c = np.ascontiguousarray(conf[:, cols])
        pin = np.ascontiguousarray(known[:, cols])
        start = np.ascontiguousarray(x0[:, cols])
        den = ai @ c
        x = start.copy()
        for _ in range(steps):
            x = (ai @ (c * x)) / den
            np.copyto(x, start, where=pin)
        return cols, x

    out = np.empty_like(x0)
    parts = np.array_split(np.arange(x0.shape[1]), 2)
    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        for cols, x in pool.map(run, parts):
            out[:, cols] = x
    return out


def stage2(x: np.ndarray, conf: np.ndarray, beta: float) -> np.ndarray:
    """Correlation-weighted inter-channel correction on the filled matrix."""
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    std = np.sqrt(np.diag(cov).copy())
    with np.errstate(divide="ignore", invalid="ignore"):
        r = cov / np.outer(std, std)
    r[~np.isfinite(r)] = 0.0
    np.fill_diagonal(r, 0.0)
    return x + beta * (1.0 - conf) * ((conf * (x - mean)) @ r)


def pcfi(adj, truth: np.ndarray, known: np.ndarray, *, alpha: float,
         beta: float, steps: int) -> np.ndarray:
    dist = distances(adj, known)
    if (dist < 0).any():
        raise ValueError("reference: a missing entry cannot reach an observed one")
    conf = alpha ** dist.astype(np.float64)
    x0 = np.where(known, truth, 0.0)
    return stage2(stage1(adj, x0, known, conf, steps), conf, beta)


def fp(adj, truth: np.ndarray, known: np.ndarray, steps: int) -> np.ndarray:
    """Symmetric-normalized diffusion with observed entries reset each step."""
    n = adj.shape[0]
    dinv = sparse.diags_array(1.0 / np.sqrt(adj.sum(axis=1) + 1.0))
    op = (dinv @ (adj + sparse.eye_array(n)) @ dinv).tocsr()
    x0 = np.where(known, truth, 0.0)
    x = x0.copy()
    for _ in range(steps):
        x = op @ x
        np.copyto(x, x0, where=known)
    return x


def structural_mask(n: int, f: int, rate: float, seed: int) -> np.ndarray:
    """Known-mask with round-half-up(rate * n) whole rows removed: one PCG64
    uniform per row, the smallest ranks go (the documented protocol)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    missing = np.argsort(rng.random(n), kind="stable")[:int(np.floor(rate * n + 0.5))]
    known = np.ones((n, f), dtype=bool)
    known[missing] = False
    return known


def rmse(truth, imputed, known) -> float:
    diff = truth[~known] - imputed[~known]
    return float(np.sqrt(np.mean(diff * diff)))


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * abs(b) + ABS_TOL


def _graph_shape(adj) -> dict:
    return {"nodes": int(adj.shape[0]), "edges": int(adj.nnz // 2),
            "components": num_components(adj)}


def check_impute(dataset: Path, mask_path: Path, out_path: Path, *,
                 alpha: float, beta: float, steps: int) -> dict:
    """Compare an ``impute`` output with the reference.

    Returns ``problems`` (empty when the output is right), ``rmse`` of the
    output over the masked entries, and the input's ``shape``.
    """
    truth = read_csv(dataset / "features.csv")
    known = read_csv(mask_path).astype(bool)
    out = read_csv(out_path)
    adj = adjacency(dataset / "edges.tsv", truth.shape[0])
    result = {"problems": [], "rmse": None,
              "shape": {**_graph_shape(adj),
                        "missing_entries": int((~known).sum())}}
    if out.shape != truth.shape or known.shape != truth.shape:
        result["problems"].append(f"shapes differ: truth {truth.shape}, "
                                  f"mask {known.shape}, output {out.shape}")
        return result
    # Both files hold %.9g text, and two different 9-digit decimals never
    # parse to the same double, so equal values mean equal bytes.
    changed = int((out[known] != truth[known]).sum())
    if changed:
        result["problems"].append(f"{changed} observed entries changed")
    ref = pcfi(adj, truth, known, alpha=alpha, beta=beta, steps=steps)
    bad = np.abs(out - ref) > REL_TOL * np.abs(ref) + ABS_TOL
    if bad.any():
        result["problems"].append(
            f"{int(bad.sum())} entries differ from the reference "
            f"(max abs diff {float(np.abs(out - ref).max()):.3g})")
    result["rmse"] = rmse(truth, out, known)
    return result


def check_pipeline(dataset: Path, report_path: Path, *, rate: float, seeds,
                   alpha: float, beta: float, steps: int) -> dict:
    """Recompute every seed's pcfi, fp and zero RMSE on the largest
    component under the structural mask and compare with the report.

    Returns ``problems``, the report's mean pcfi ``rmse``, and the shape
    of the generated graph (all components) with the missing entries
    summed over seeds.
    """
    report = json.loads(Path(report_path).read_text())
    truth_all = read_csv(dataset / "features.csv")
    adj_all = adjacency(dataset / "edges.tsv", truth_all.shape[0])
    keep = largest_component(adj_all)
    adj = adj_all[keep][:, keep].tocsr()
    truth = truth_all[keep]
    n, f = truth.shape
    masks = [structural_mask(n, f, rate, seed) for seed in seeds]
    result = {"problems": [], "rmse": None,
              "shape": {**_graph_shape(adj_all),
                        "largest_component": int(n),
                        "missing_entries": int(sum((~k).sum() for k in masks))}}
    problems = result["problems"]
    if (report["num_nodes"], report["num_channels"]) != (n, f):
        problems.append(f"report covers {report['num_nodes']}x"
                        f"{report['num_channels']}, reference {n}x{f}")
        return result
    if len(report["per_seed"]) != len(masks):
        problems.append(f"report has {len(report['per_seed'])} seeds, "
                        f"expected {len(masks)}")
        return result
    pcfi_rmses = []
    for block, seed, known in zip(report["per_seed"], seeds, masks):
        if block["mask"]["num_missing_entries"] != int((~known).sum()):
            problems.append(f"seed {seed}: missing-entry count differs")
        expected = {
            "pcfi": rmse(truth, pcfi(adj, truth, known, alpha=alpha, beta=beta,
                                     steps=steps), known),
            "fp": rmse(truth, fp(adj, truth, known, steps), known),
            "zero": rmse(truth, np.zeros_like(truth), known),
        }
        pcfi_rmses.append(expected["pcfi"])
        for method, value in expected.items():
            got = block["methods"][method]["rmse"]
            if got is None or not _close(got, value):
                problems.append(f"seed {seed}: {method} rmse {got} != "
                                f"reference {value:.9g}")
    got_mean = report["aggregates"]["pcfi"]["rmse"]["mean"]
    if got_mean is None or not _close(got_mean, float(np.mean(pcfi_rmses))):
        problems.append(f"aggregate pcfi rmse {got_mean} != reference")
    result["rmse"] = got_mean
    return result
