"""Run configuration: feasibility caps and the random seed.

Every randomized check takes an explicit seed (default 0) so failures are
reproducible.  Caps bound the exhaustive sweeps; each field can be
overridden through an environment variable COLORPART_<FIELD> (upper case),
e.g. COLORPART_PSI_SAMPLES=50.
"""

import os
from dataclasses import dataclass, fields


ENV_PREFIX = "COLORPART_"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    # monoid enumeration, closure and Green's classes
    monoid_cap: int = 10**5
    presentation_k_max: int = 4
    presentation_r_max: int = 4
    # groupoid checks
    psi_samples: int = 1000
    psi_k_max: int = 4
    psi_r_max: int = 3
    homdim_k_max: int = 3
    homdim_r_max: int = 3
    # counting
    egf_k_max: int = 10
    egf_r_max: int = 4
    # bijections
    sw_n_max: int = 4
    sw_r_max: int = 3
    sw_diagram_k_max: int = 3
    sw_diagram_r_max: int = 2
    # character identities
    formula_weight_max: int = 2
    xt_size_max: int = 3
    # cell modules
    gram_k_max: int = 2
    gram_r_max: int = 3
    cartan_weight_max: int = 3

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "seed" and v <= 0:
                raise ValueError("cap %s must be positive, got %r" % (f.name, v))


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
