"""CC-NUMA comparison substrate (paper Section 2, Figure 1).

Before proposing V-COMA the paper examines TLB placement in a
conventional CC-NUMA: L0/L1/L2 per-node TLBs or a SHARED-TLB at the
home memory.  Its argument for moving to COMA is that the SHARED-TLB
placement is only attractive when data can migrate and replicate:

    "In CC-NUMAs the sharing of TLBs is not efficient because of the
    lack of data migration and replication. […] Because page placement
    cannot be optimized for locality, capacity misses are remote most
    of the time resulting in poor performance for applications whose
    significant working set does not fit in the second-level cache."

This package implements that baseline machine: fixed home memories (no
attraction memory), an MSI write-invalidate protocol over the home
directories, and the same cache/translation plumbing as the COMA
machine, so the two architectures run identical workloads and the
paper's motivating comparison (``python -m repro paper run numa``) is
measurable.

Scheme naming: :data:`SHARED_TLB` aliases ``Scheme.V_COMA`` — both mean
"virtual caches, translation at the home selected by the virtual
address"; the surrounding machine (COMA vs NUMA) decides what that home
does with the request.
"""

from repro.core.schemes import Scheme
from repro.numa.protocol import NumaEngine
from repro.numa.machine import NumaMachine

#: Paper Figure 1's memory-side placement: the home node translates.
SHARED_TLB = Scheme.V_COMA

__all__ = ["NumaEngine", "NumaMachine", "SHARED_TLB"]
