"""Integer factorization via smooth subsum search.

Library entry points: factor() for full factorizations, collect_relations()
for the relation-collection phase on its own.  factor(n, RunConfig(algo="qs"))
runs the sieve baseline.
"""

from .engine import (
    FactorResult,
    RelationShortfall,
    RunConfig,
    RunStats,
    collect_relations,
    factor,
)
from .numtheory import FoundFactor

__version__ = "0.1.0"

__all__ = [
    "FactorResult",
    "FoundFactor",
    "RelationShortfall",
    "RunConfig",
    "RunStats",
    "collect_relations",
    "factor",
    "__version__",
]
