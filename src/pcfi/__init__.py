"""Feature imputation on graphs, weighted by distance-derived confidence.

Missing node features are recovered in two passes: values diffuse
between neighboring nodes with edge weights that favor the endpoint
closer to an observed value, then each node's channels exchange
information through the correlation structure of the filled matrix.
See :mod:`pcfi.diffusion` and :mod:`pcfi.propagation` for the math,
:mod:`pcfi.pipeline` for end-to-end runs, and the ``pcfi`` command for
the file-based workflow.

The package exports the ``__all__`` of each of its layer modules, where
every public name is declared; :mod:`pcfi.io` is imported on its own.
"""

from . import (confidence, diffusion, errors, graph, masking, metrics, pipeline,
               propagation, synth)
from .confidence import *  # noqa: F401,F403
from .diffusion import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .masking import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .pipeline import *  # noqa: F401,F403
from .propagation import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (confidence, diffusion, errors, graph, masking, metrics,
                               pipeline, propagation, synth)
           for name in module.__all__] + ["__version__"]
