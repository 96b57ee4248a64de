"""Command-line interface.

Five subcommands cover the workflow: ``synth`` generates a dataset,
``mask`` simulates missingness, ``impute`` fills a masked matrix,
``eval`` scores an imputation against held-out truth, and ``pipeline``
chains all of it over several seeds and methods.

Data goes to the path named by ``--out`` (``--report`` for eval); ``-``
streams the primary output to stdout. Logs go to stderr. Exit codes:
0 success, 2 invalid input or arguments, 3 file-system errors, 4
numerical failures. Outputs are checked before any input is read: two
aimed at one destination exit 2, and one whose directory does not exist
exits 3 (``synth`` creates its directory).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import io as pio
from .confidence import compute_spds, SpdsMatrix
from .diffusion import MODES
from .errors import InputError, NumericalError
from .graph import build_graph, extract_largest_component
from .masking import (MASK_KINDS, FeatureSet, check_mask_settings, check_mask_shape,
                      make_mask)
from .metrics import check_shapes, evaluate
from .pipeline import (DEFAULT_METHODS, SIDECAR_SCHEMA_VERSION, ImputationConfig,
                       METHODS, impute, plan_runs, run_facts, run_pipeline)
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


def _refuse_both(args, flag: str, *alternatives: str) -> None:
    """Refuse ``flag`` given with one of its ``alternatives``, which it
    would otherwise silently override."""
    def given(name):
        return getattr(args, name[2:].replace("-", "_")) is not None

    for other in alternatives:
        if given(flag) and given(other):
            raise InputError(f"{flag} and {other} are alternative inputs; "
                             "give one of them")


def _check_outputs(*outputs: tuple[str, str | None]) -> None:
    """Check each ``(flag, path)`` output before any input is read.
    Raises :class:`InputError` if two are both stdout or resolve to one
    file, where the later would replace the earlier, and
    :class:`FileNotFoundError` if a file's directory does not exist, so
    that no run ends with some outputs written and the rest refused."""
    seen = {}
    for flag, path in outputs:
        if path is None:
            continue
        target = path if path == "-" else os.path.realpath(path)
        if target in seen:
            raise InputError(f"{seen[target]} and {flag} both write to {path}; "
                             "give each its own destination")
        seen[target] = flag
        # the directory as written: realpath drops "missing/.." unchecked
        directory = os.path.dirname(path) or "."
        if path != "-" and not os.path.isdir(directory):
            raise FileNotFoundError(f"{flag} {path}: no directory {directory}")


def _graph_for(args, num_nodes: int):
    edges = pio.load_edges(args.edges)
    return build_graph(edges, num_nodes)


def _impute_config(args, method: str) -> ImputationConfig:
    """The run settings of ``impute`` and ``pipeline``, for ``method``."""
    return ImputationConfig(alpha=args.alpha, beta=args.beta, steps=args.k,
                            method=method, mode=args.mode,
                            lenient_no_source=args.lenient_no_source,
                            threads=args.threads)


def cmd_mask(args) -> int:
    check_mask_settings(args.type, args.rate, args.seed)
    _refuse_both(args, "--features-file", "--num-nodes", "--num-channels")
    _check_outputs(("--out", args.out))
    if args.features_file is not None:
        n, f = pio.load_matrix_shape(args.features_file, header=args.header)
    elif args.num_nodes is not None and args.num_channels is not None:
        n, f = args.num_nodes, args.num_channels
    else:
        raise InputError(
            "provide --features-file, or both --num-nodes and --num-channels"
        )
    known = make_mask(args.type, n, f, args.rate, args.seed)
    pio.write_mask(args.out, known)
    log.info("wrote %dx%d %s mask (rate=%g, seed=%d) to %s",
             n, f, args.type, args.rate, args.seed, args.out)
    return EXIT_OK


def cmd_impute(args) -> int:
    cfg = _impute_config(args, args.method)
    # the side-car: --report, else <out>.json unless --out -
    report_path = args.report
    if report_path is None and args.out != "-":
        report_path = args.out + ".json"
    _check_outputs(("--out", args.out), ("--spds-out", args.spds_out),
                   ("--report" if args.report is not None
                    else "the default --report", report_path))
    values = pio.load_matrix(args.features, header=args.header)
    known = pio.load_mask(args.mask, header=args.header)
    check_mask_shape(values, known)
    n, f = values.shape
    g = _graph_for(args, n)
    # one matrix from load to write: the missing entries are zeroed in place
    # and the set is handed to impute in a list that it empties, so stage 1
    # writes into this matrix and stage 2 corrects it in place
    missing = ~known
    ignored = np.count_nonzero(np.logical_and(values, missing))
    np.copyto(values, 0.0, where=missing)
    del missing
    masked = [FeatureSet(values, known)]
    del values
    if ignored:
        log.info("ignoring values at %d masked entries", ignored)
    num_missing = known.size - np.count_nonzero(known)
    spds = None if args.spds_out is None else compute_spds(g, known)
    del known  # the masked input holds the last reference, freed after stage 1
    outcome = impute(g, masked, cfg, spds=spds)
    pio.write_matrix(args.out, outcome.values)
    if spds is not None:
        pio.write_spds(args.spds_out, spds.distances)
    if report_path is not None:
        pio.write_json(report_path, {
            "schema_version": SIDECAR_SCHEMA_VERSION, "num_nodes": n,
            "num_channels": f, "num_missing_entries": num_missing,
            **run_facts(cfg, outcome)})
    log.info("imputed %d missing entries with %s", num_missing, cfg.method)
    return EXIT_OK


def cmd_eval(args) -> int:
    _refuse_both(args, "--spds", "--edges")
    _check_outputs(("--report", args.report))
    truth = pio.load_matrix(args.truth, header=args.header)
    imputed = pio.load_matrix(args.imputed, header=args.header)
    known = pio.load_mask(args.mask, header=args.header)
    check_shapes(truth, imputed, known)
    spds = None
    if args.spds is not None:
        # evaluate checks the field against the mask
        spds = SpdsMatrix(distances=pio.load_spds(args.spds, header=args.header))
    elif args.edges is not None:
        spds = compute_spds(_graph_for(args, truth.shape[0]), known)
    report = evaluate(truth, imputed, known, spds)
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
                     largest_component=not args.keep_all_components)
    dataset = generate(spec)
    pio.write_dataset(args.out, dataset)
    homophily = dataset.meta["class_homophily"]
    log.info("wrote dataset with %d nodes / %d edges to %s "
             "(class homophily %s)", dataset.graph.num_nodes,
             dataset.graph.num_edges, args.out,
             "n/a" if homophily is None else f"{homophily:.3f}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    seeds = _parse_int_list(args.seeds, "--seeds")
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    # run_pipeline sets each run's method; zero checks no alpha
    cfg = _impute_config(args, "zero")
    plan_runs(cfg, args.mask_type, args.rate, seeds, methods)  # before a file is read
    _refuse_both(args, "--dataset", "--edges", "--features")
    _check_outputs(("--out", args.out))
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
    report = run_pipeline(
        g, features, cfg, mask_kind=args.mask_type,
        mask_rate=args.rate, seeds=seeds, methods=methods,
        collect_timings=args.timings,
    )
    pio.write_json(args.out, report)
    for method, agg in report["aggregates"].items():
        log.info("%s: rmse mean=%s cosine mean=%s", method,
                 agg["rmse"]["mean"], agg["cosine_mean"]["mean"])
    return EXIT_OK


def _add_common_impute_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=ImputationConfig.alpha,
                   help="confidence decay base in (0, 1), read by pcfi and "
                        "pcfi_stage1_only (default %(default)s)")
    p.add_argument("--beta", type=float, default=ImputationConfig.beta,
                   help="inter-channel correction strength (default %(default)s)")
    p.add_argument("--k", type=int, default=ImputationConfig.steps,
                   help="diffusion steps K (default %(default)s)")
    p.add_argument("--mode", choices=MODES,
                   default=ImputationConfig.mode, help="diffusion solver")
    p.add_argument("--lenient-no-source", action="store_true",
                   help="zero-fill channels whose missing entries cannot reach "
                        "an observed value instead of erroring")
    p.add_argument("--threads", type=int, default=None,
                   help="threads over stage 1's tasks, the calling one "
                        "included, >= 0 (0 = the cpus this process may run "
                        "on; default: PCFI_THREADS or 1)")


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
    p.add_argument("--type", choices=MASK_KINDS, required=True,
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
    p.add_argument("--report", required=True, help="report JSON path or -")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--num-nodes", type=int, default=SynthSpec.num_nodes)
    p.add_argument("--num-classes", type=int, default=SynthSpec.num_classes)
    p.add_argument("--feature-dim", type=int, default=SynthSpec.feature_dim)
    p.add_argument("--intra", type=float, default=SynthSpec.intra_edge_prob,
                   help="edge probability within a class")
    p.add_argument("--inter", type=float, default=SynthSpec.inter_edge_prob,
                   help="edge probability between classes")
    p.add_argument("--gaussian-scale", type=float, default=SynthSpec.gaussian_scale,
                   help="feature noise standard deviation")
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--keep-all-components", action="store_true",
                   help="do not restrict to the largest component")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline",
                       help="mask/impute/eval over seeds and methods")
    p.add_argument("--dataset", help="dataset directory from the synth command")
    p.add_argument("--edges", help="edge list (with --features)")
    p.add_argument("--features", help="fully observed feature CSV")
    p.add_argument("--header", action="store_true")
    p.add_argument("--mask-type", choices=MASK_KINDS, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seeds", default="0",
                   help="comma-separated mask seeds (default 0)")
    p.add_argument("--methods", default=",".join(DEFAULT_METHODS),
                   help=f"comma-separated methods, of {', '.join(METHODS)}")
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
