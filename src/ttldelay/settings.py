"""Numeric tolerances and limits, overridable through one environment variable.

Set ``TTLDELAY_NUMERICS`` to a comma-separated list of ``key=value`` pairs to
override individual fields, e.g. ``TTLDELAY_NUMERICS="state_cap=500000"``.
Each check reads it when it runs; an unknown key or a bad value raises ConfigError.
"""

import math
import os
from dataclasses import dataclass, fields

from ttldelay.errors import ConfigError

ENV_VAR = "TTLDELAY_NUMERICS"


@dataclass(frozen=True)
class NumericSettings:
    """Tolerances used by the exact engine.

    residual_tol  steady-state residual tolerance per component
    state_cap     hard cap on composed state-space size
    cond_limit    condition-number estimate above which solves are rejected
    """

    residual_tol: float = 1e-8
    state_cap: int = 200_000
    cond_limit: float = 1e12


def _parse_overrides(text):
    overrides = {}
    valid = {f.name: f.type for f in fields(NumericSettings)}
    for item in filter(str.strip, text.split(",")):
        key, _, value = (part.strip() for part in item.partition("="))
        if key not in valid:
            raise ConfigError(f"{ENV_VAR}: unknown numeric setting {key!r}")
        try:
            overrides[key] = valid[key](value)
        except ValueError:
            overrides[key] = math.nan
        if not (math.isfinite(overrides[key]) and overrides[key] > 0):
            raise ConfigError(
                f"{ENV_VAR}: {key} must be a finite positive {valid[key].__name__}, got {value!r}"
            )
    return overrides


def default_settings():
    """Return the settings record, honouring the environment override."""
    return NumericSettings(**_parse_overrides(os.environ.get(ENV_VAR, "")))
