"""Integer factorization via smooth subsum search.

Library entry points: factor() for full factorizations, collect_relations()
for the relation-collection phase on its own.  factor(n, RunConfig(algo="qs"))
runs the sieve baseline.  close_workers() ends the collection workers that
the process keeps between collections; atexit calls it.
"""

from .engine import (
    FactorResult,
    RelationShortfall,
    RunConfig,
    RunStats,
    close_workers,
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
    "close_workers",
    "collect_relations",
    "factor",
    "__version__",
]
