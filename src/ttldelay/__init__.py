"""Markov-arrival-process models of TTL cache hierarchies with object fetch delays.

The package provides four views of the same system, each reading one
cache-tree specification (:mod:`ttldelay.spec`):

* an exact engine that composes per-cache MAPs over a cache tree
  (:mod:`ttldelay.map_algebra`, :mod:`ttldelay.cache_builders`,
  :mod:`ttldelay.hierarchy`) and reduces state via lumping
  (:mod:`ttldelay.lumping`),
* closed-form and transform-domain approximations
  (:mod:`ttldelay.metrics`, :mod:`ttldelay.approximation`),
* a discrete-event simulator used as ground truth (:mod:`ttldelay.simulator`),
* a trace-fitting pipeline producing phase-type request models
  (:mod:`ttldelay.trace_pipeline`).

The ``ttldelay`` command line (:mod:`ttldelay.cli`) wraps all of these and
emits CSV tables; it imports the exact engine, and SciPy, only when a command
calls it.
"""

from ttldelay.errors import (
    CapacityError,
    ConditioningError,
    ConfigError,
    DegenerateProcessError,
    ReducibleChainError,
    TTLDelayError,
    UnsupportedDistributionError,
)

__all__ = [
    "CapacityError",
    "ConditioningError",
    "ConfigError",
    "DegenerateProcessError",
    "ReducibleChainError",
    "TTLDelayError",
    "UnsupportedDistributionError",
]

__version__ = "0.1.0"
