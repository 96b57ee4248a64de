"""Command-line interface.

Five subcommands cover the workflow: ``synth`` generates a dataset,
``mask`` simulates missingness, ``impute`` fills a masked matrix,
``eval`` scores an imputation against held-out truth, and ``pipeline``
chains all of it over several seeds and methods.

Data goes to the path named by ``--out`` (``--report`` for eval); ``-``
streams the primary output to stdout. Logs go to stderr. Exit codes:
0 success, 2 invalid input or arguments, 3 file-system errors, 4
numerical failures.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import io as pio
from .confidence import compute_spds, SpdsMatrix
from .errors import InputError, NumericalError
from .graph import build_graph, extract_largest_component
from .masking import apply_mask, structural_mask, uniform_mask
from .metrics import evaluate
from .pipeline import ImputationConfig, METHODS, impute, run_pipeline
from .synth import SynthSpec, generate

log = logging.getLogger("pcfi")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(f"{what} must be a comma-separated list of integers, "
                         f"got {text!r}") from None


def _load_features_mask(args) -> tuple[np.ndarray, np.ndarray]:
    values = pio.load_matrix(args.features, header=args.header)
    known = pio.load_mask(args.mask, header=args.header)
    if known.shape != values.shape:
        raise InputError(
            f"mask shape {known.shape} does not match feature shape {values.shape}"
        )
    return values, known


def _graph_for(args, num_nodes: int):
    edges = pio.load_edges(args.edges)
    return build_graph(edges, num_nodes)


def cmd_mask(args) -> int:
    if args.features_file is not None:
        n, f = pio.load_matrix_shape(args.features_file, header=args.header)
    elif args.num_nodes is not None and args.num_channels is not None:
        n, f = args.num_nodes, args.num_channels
    else:
        raise InputError(
            "provide --features-file, or both --num-nodes and --num-channels"
        )
    if args.type == "structural":
        known = structural_mask(n, f, args.rate, args.seed)
    else:
        known = uniform_mask(n, f, args.rate, args.seed)
    pio.write_mask(args.out, known)
    log.info("wrote %dx%d %s mask (rate=%g, seed=%d) to %s",
             n, f, args.type, args.rate, args.seed, args.out)
    return EXIT_OK


def cmd_impute(args) -> int:
    values, known = _load_features_mask(args)
    n, f = values.shape
    g = _graph_for(args, n)
    # handed to impute in a list that it empties, so that neither the raw nor
    # the masked matrix stays alive through stage 2
    masked = [apply_mask(values, known)]
    ignored = np.count_nonzero(np.logical_and(values, ~known))
    del values
    if ignored:
        log.info("ignoring values at %d masked entries", ignored)
    num_missing = known.size - np.count_nonzero(known)
    cfg = ImputationConfig(alpha=args.alpha, beta=args.beta, steps=args.k,
                           method=args.method, mode=args.mode,
                           lenient_no_source=args.lenient_no_source,
                           threads=args.threads)
    outcome = impute(g, masked, cfg)
    pio.write_matrix(args.out, outcome.values)

    spds = outcome.spds
    if args.spds_out is not None:
        if spds is None:
            spds = compute_spds(g, known, args.alpha)
        pio.write_spds(args.spds_out, spds.distances)

    report_path = args.report
    if report_path is None and args.out != "-":
        report_path = args.out + ".json"
    if report_path is not None:
        stage1 = outcome.stage1
        residuals = stage1.residuals if stage1 is not None else None
        report = {
            "schema_version": 1,
            "config": cfg.summary(),
            "num_nodes": n,
            "num_channels": f,
            "num_missing_entries": num_missing,
            "flagged_channels": outcome.flagged_channels,
            "steps_run": stage1.steps_run if stage1 is not None else 0,
            "residuals": (None if residuals is None
                          else [float(r) for r in residuals]),
            "max_residual": (float(residuals.max())
                             if residuals is not None and residuals.size
                             else None),
        }
        pio.write_json(report_path, report)
    log.info("imputed %d missing entries with %s", num_missing, cfg.method)
    return EXIT_OK


def cmd_eval(args) -> int:
    truth = pio.load_matrix(args.truth, header=args.header)
    imputed = pio.load_matrix(args.imputed, header=args.header)
    known = pio.load_mask(args.mask, header=args.header)
    if truth.shape != imputed.shape or truth.shape != known.shape:
        raise InputError(
            f"shape mismatch: truth {truth.shape}, imputed {imputed.shape}, "
            f"mask {known.shape}"
        )
    spds = None
    if args.spds is not None:
        distances = pio.load_spds(args.spds, header=args.header)
        if distances.shape != truth.shape:
            raise InputError(
                f"distance field shape {distances.shape} does not match "
                f"feature shape {truth.shape}"
            )
        if not np.array_equal(distances == 0, known):
            raise InputError("distance field inconsistent with mask: distance 0 "
                             "must hold exactly at observed entries")
        spds = SpdsMatrix(distances=distances, alpha=args.alpha)
    elif args.edges is not None:
        g = _graph_for(args, truth.shape[0])
        spds = compute_spds(g, known, args.alpha)
    report = evaluate(truth, imputed, known, spds,
                      config={"alpha": args.alpha} if spds is not None else {})
    pio.write_json(args.report, report.to_dict())
    if report.rmse is not None:
        log.info("rmse=%.6g cosine_mean=%s over %d nodes", report.rmse,
                 "n/a" if report.cosine_mean is None
                 else f"{report.cosine_mean:.6g}", report.num_eval_nodes)
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(num_nodes=args.num_nodes, num_classes=args.num_classes,
                     feature_dim=args.feature_dim, intra_edge_prob=args.intra,
                     inter_edge_prob=args.inter,
                     gaussian_scale=args.gaussian_scale, seed=args.seed,
                     largest_component=not args.keep_all_components,
                     strict_equidistance=args.strict_equidistance)
    dataset = generate(spec)
    pio.write_dataset(args.out, dataset)
    log.info("wrote dataset with %d nodes / %d edges to %s "
             "(class homophily %.3f)", dataset.graph.num_nodes,
             dataset.graph.num_edges, args.out,
             dataset.meta.get("class_homophily", float("nan")))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    if args.dataset is not None:
        g, features, _labels, _meta = pio.load_dataset(args.dataset)
    elif args.edges is not None and args.features is not None:
        features = pio.load_matrix(args.features, header=args.header)
        g = _graph_for(args, features.shape[0])
    else:
        raise InputError("provide --dataset, or both --edges and --features")
    if not args.no_lcc:
        g, keep, num_components = extract_largest_component(g)
        if num_components > 1:
            log.info("restricted to largest component: %d of %d nodes",
                     keep.size, features.shape[0])
            features = features[keep]
    seeds = _parse_int_list(args.seeds, "--seeds")
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    report = run_pipeline(
        g, features, mask_kind=args.mask_type, mask_rate=args.rate,
        seeds=seeds, methods=methods, alpha=args.alpha, beta=args.beta,
        steps=args.k, mode=args.mode,
        lenient_no_source=args.lenient_no_source, threads=args.threads,
        collect_timings=args.timings,
    )
    pio.write_json(args.out, report)
    for method, agg in report["aggregates"].items():
        log.info("%s: rmse mean=%s cosine mean=%s", method,
                 agg["rmse"]["mean"], agg["cosine_mean"]["mean"])
    return EXIT_OK


def _add_common_impute_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.8,
                   help="confidence decay base in (0, 1) (default 0.8)")
    p.add_argument("--beta", type=float, default=1e-3,
                   help="inter-channel correction strength (default 1e-3)")
    p.add_argument("--k", type=int, default=100,
                   help="diffusion steps K (default 100)")
    p.add_argument("--mode", choices=["iterative", "closed_form"],
                   default="iterative", help="diffusion solver")
    p.add_argument("--lenient-no-source", action="store_true",
                   help="zero-fill channels whose missing entries cannot reach "
                        "an observed value instead of erroring")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads over column blocks "
                        "(0 = all cpus; default: PCFI_THREADS or 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcfi",
        description="Distance-confidence feature imputation on graphs",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="debug logging to stderr")
    parser.add_argument("--quiet", action="store_true",
                        help="only warnings and errors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="generate a 0/1 observedness mask")
    p.add_argument("--type", choices=["structural", "uniform"], required=True,
                   help="remove whole rows (structural) or single entries "
                        "(uniform)")
    p.add_argument("--rate", type=float, required=True,
                   help="fraction removed, in (0, 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-nodes", type=int,
                   help="rows (with --num-channels, if no --features-file)")
    p.add_argument("--num-channels", type=int,
                   help="columns (with --num-nodes, if no --features-file)")
    p.add_argument("--features-file",
                   help="matrix whose shape the mask should match")
    p.add_argument("--header", action="store_true",
                   help="skip one header row when reading --features-file")
    p.add_argument("--out", required=True, help="output CSV path or -")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("impute", help="fill missing entries of a masked matrix")
    p.add_argument("--edges", required=True, help="edge list (two int columns)")
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--mask", required=True, help="0/1 mask CSV (1 = observed)")
    p.add_argument("--header", action="store_true",
                   help="skip one header row in CSV inputs")
    p.add_argument("--method", choices=list(METHODS), default="pcfi")
    _add_common_impute_args(p)
    p.add_argument("--out", required=True, help="imputed CSV path or -")
    p.add_argument("--spds-out", help="also write the distance field CSV")
    p.add_argument("--report",
                   help="summary JSON path (default: <out>.json, "
                        "omitted when --out is -)")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("eval", help="score an imputation against ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--imputed", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--spds", help="precomputed distance field CSV; enables "
                                  "distance buckets")
    p.add_argument("--edges", help="edge list (alternative to --spds: "
                                   "distances are computed from it)")
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--report", required=True, help="report JSON path or -")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--num-nodes", type=int, default=5000)
    p.add_argument("--num-classes", type=int, default=10)
    p.add_argument("--feature-dim", type=int, default=5)
    p.add_argument("--intra", type=float, default=0.01,
                   help="edge probability within a class")
    p.add_argument("--inter", type=float, default=0.0011,
                   help="edge probability between classes")
    p.add_argument("--gaussian-scale", type=float, default=0.1,
                   help="feature noise standard deviation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keep-all-components", action="store_true",
                   help="do not restrict to the largest component")
    p.add_argument("--strict-equidistance", action="store_true",
                   help="error out if exact equidistant class means do not fit")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline",
                       help="mask/impute/eval over seeds and methods")
    p.add_argument("--dataset", help="dataset directory from the synth command")
    p.add_argument("--edges", help="edge list (with --features)")
    p.add_argument("--features", help="fully observed feature CSV")
    p.add_argument("--header", action="store_true")
    p.add_argument("--mask-type", choices=["structural", "uniform"],
                   required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seeds", default="0",
                   help="comma-separated mask seeds (default 0)")
    p.add_argument("--methods", default="pcfi,fp,zero",
                   help="comma-separated methods "
                        "(pcfi, pcfi_stage1_only, fp, zero)")
    _add_common_impute_args(p)
    p.add_argument("--no-lcc", action="store_true",
                   help="run on the full graph instead of the largest component")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the report")
    p.add_argument("--out", required=True, help="report JSON path or -")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.DEBUG if args.verbose else (
        logging.WARNING if args.quiet else logging.INFO)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except InputError as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO
    except NumericalError as exc:
        log.error("%s", exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
