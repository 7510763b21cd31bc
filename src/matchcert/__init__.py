"""Weighted matching with certified intermediate matchings.

A primal-dual blossom solver that records every intermediate matching it
constructs, together with a dual certificate proving the matching has
minimum weight among all matchings of the same cardinality. Exact rational
arithmetic throughout; an exhaustive oracle and two distinct
certificate routes keep every claim checkable at desk scale.
"""

from .certificates import verify_run
from .engine import (EngineState, apply_dual_update, compute_alpha,
                     lift_matching, shrink_blossom, solve)
from .graph import Instance, normalize_weights
from .oracle import min_weight_by_cardinality

__version__ = "0.1.0"

# Exactly the names the README's Library section documents; everything
# else is imported from its submodule.
__all__ = [
    "EngineState", "Instance", "apply_dual_update", "compute_alpha",
    "lift_matching", "min_weight_by_cardinality", "normalize_weights",
    "shrink_blossom", "solve", "verify_run",
]
