"""The exact engine's one overridable limit: the cap on composed states.

Set ``TTLDELAY_NUMERICS="state_cap=500000"`` to raise it.  Each check reads
the variable when it runs; any other key, or a value that is not a positive
integer, raises ConfigError.
"""

import os

from ttldelay.errors import CapacityError, ConfigError

ENV_VAR = "TTLDELAY_NUMERICS"
STATE_CAP = 200_000


def state_cap():
    """The cap on composed states, honouring the environment override."""
    cap = STATE_CAP
    for item in filter(str.strip, os.environ.get(ENV_VAR, "").split(",")):
        key, _, value = (part.strip() for part in item.partition("="))
        if key != "state_cap":
            raise ConfigError(f"{ENV_VAR}: unknown numeric setting {key!r}")
        try:
            cap = int(value)
        except ValueError:
            cap = 0
        if cap <= 0:
            raise ConfigError(
                f"{ENV_VAR}: state_cap must be a positive integer, got {value!r}"
            )
    return cap


def check_state_count(
    count, hint=f"raise it with {ENV_VAR}=state_cap=<n>; lumping shrinks only equal siblings"
):
    """Raise :class:`CapacityError` when ``count`` states exceed the cap."""
    cap = state_cap()
    if count > cap:
        raise CapacityError(count, cap, hint)
