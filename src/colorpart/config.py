"""Run configuration: the random seed and the monoid size cap.

Every randomized check takes an explicit seed (default 0) so failures are
reproducible.  monoid_cap bounds |CPar_k| wherever a monoid is enumerated
or closed.  Both can be set through COLORPART_SEED and
COLORPART_MONOID_CAP; the sweep sizes of the verification suite are fixed
inside its checks and cannot be set.
"""

import os
from dataclasses import dataclass, fields

from .algebra import MONOID_CAP


ENV_PREFIX = "COLORPART_"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    # monoid enumeration, closure and Green's classes
    monoid_cap: int = MONOID_CAP

    def __post_init__(self):
        if self.monoid_cap <= 0:
            raise ValueError("cap monoid_cap must be positive, got %r"
                             % self.monoid_cap)


def from_env(**overrides):
    """Build a RunConfig from defaults, COLORPART_* variables and overrides."""
    kwargs = {}
    for f in fields(RunConfig):
        name = ENV_PREFIX + f.name.upper()
        env = os.environ.get(name)
        if env is not None:
            try:
                kwargs[f.name] = int(env)
            except ValueError:
                raise ValueError("%s=%r is not an integer" % (name, env))
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**kwargs)
