"""Shared infrastructure: parameters, address layout, statistics, RNG.

Everything else in :mod:`repro` builds on this package.  It is free of
simulation logic; it only defines *how the machine is described* (sizes,
latencies, address-bit fields) and small utilities used everywhere.
"""

from repro.common.errors import (
    CapacityError,
    ConfigurationError,
    ProtocolError,
    ReproError,
)
from repro.common.address import AddressLayout
from repro.common.params import MachineParams
from repro.common.rng import make_rng, substream_seed
from repro.common.stats import Counters, TimeBreakdown

__all__ = [
    "AddressLayout",
    "CapacityError",
    "ConfigurationError",
    "Counters",
    "MachineParams",
    "ProtocolError",
    "ReproError",
    "TimeBreakdown",
    "make_rng",
    "substream_seed",
]
