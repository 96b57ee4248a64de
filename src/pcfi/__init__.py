"""Feature imputation on graphs, weighted by distance-derived confidence.

Missing node features are recovered in two passes: values diffuse
between neighboring nodes with edge weights that favor the endpoint
closer to an observed value, then each node's channels exchange
information through the correlation structure of the filled matrix.
See :mod:`pcfi.diffusion` and :mod:`pcfi.propagation` for the math,
:mod:`pcfi.pipeline` for end-to-end runs, and the ``pcfi`` command for
the file-based workflow.
"""

from .confidence import (UNREACHABLE, SpdsMatrix, compute_spds, multi_source_bfs,
                         pseudo_confidence)
from .diffusion import (build_channel_operator, closed_form_channel, diffuse_channel,
                        fp_baseline, impute_stage1, resolve_threads)
from .errors import InputError, NoSourceError, NumericalError, PcfiError
from .graph import (Graph, build_graph, connected_components, extract_largest_component,
                    induced_subgraph)
from .masking import FeatureSet, apply_mask, structural_mask, uniform_mask
from .metrics import EvalReport, evaluate, rmse
from .pipeline import ImputationConfig, ImputeOutcome, impute, run_pipeline
from .propagation import correlation, propagate_stage2
from .synth import (SynthDataset, SynthSpec, class_homophily, equidistant_means,
                    feature_homophily, generate, generate_labels, sbm_edges)

__version__ = "0.1.0"

__all__ = [
    "UNREACHABLE", "SpdsMatrix", "compute_spds", "multi_source_bfs",
    "pseudo_confidence",
    "build_channel_operator", "closed_form_channel",
    "diffuse_channel", "fp_baseline", "impute_stage1", "resolve_threads",
    "InputError", "NoSourceError", "NumericalError", "PcfiError",
    "Graph", "build_graph", "connected_components", "extract_largest_component",
    "induced_subgraph",
    "FeatureSet", "apply_mask", "structural_mask", "uniform_mask",
    "EvalReport", "evaluate", "rmse",
    "ImputationConfig", "ImputeOutcome", "impute", "run_pipeline",
    "correlation", "propagate_stage2",
    "SynthDataset", "SynthSpec", "class_homophily", "equidistant_means",
    "feature_homophily", "generate", "generate_labels", "sbm_edges",
    "__version__",
]
