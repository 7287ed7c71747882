"""The benchmark's workloads.  Each module defines:

- make_inputs(seed): the seeded inputs, as plain data (no library calls);
- jobs(inputs): a generator of (kind, call) pairs; each call is one public
  library call, and the generator is sent back its result;
- check(inputs, records): one ok flag per job, from a frozen value or an
  independent oracle;
- sizes(inputs): the stated input sizes, so wall time is work at a size.
"""

import importlib

NAMES = ("monoid", "cellular", "characters", "queries")


def load(name):
    if name not in NAMES:
        raise ValueError("unknown workload %r" % name)
    return importlib.import_module("workloads." + name)
