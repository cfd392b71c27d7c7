"""SPLASH-2-shaped synthetic workloads (paper Table 1).

The paper drives its simulator with six SPLASH-2 programs.  We cannot
execute SPARC binaries, so each workload here is a *generator* that
emits, per node, a deterministic stream of virtual-address references
with the same page-granularity locality and sharing structure as the
original program (see DESIGN.md §2 for the substitution argument):

========== ==========================================================
RADIX      permutation writes into a huge shared output array,
           histogram phase, very write-heavy, no significant TLB
           working set
FFT        blocked all-to-all transpose between matrix halves
FMM        read-mostly tree walk (Zipf) + owned particle updates
OCEAN      near-neighbour grid sweeps with boundary sharing
RAYTRACE   read-mostly shared scene + per-node ray stacks whose
           padding alignment is configurable (32 KB vs 4 KB — the
           paper's DLB/8/V2 experiment)
BARNES     lock-guarded tree build + read-shared force computation
========== ==========================================================

All workloads are registered in :data:`WORKLOADS` by lower-case name.
"""

from repro.workloads.base import SegmentSpec, Workload, WorkloadContext
from repro.workloads.radix import RadixWorkload
from repro.workloads.fft import FFTWorkload
from repro.workloads.fmm import FMMWorkload
from repro.workloads.ocean import OceanWorkload
from repro.workloads.raytrace import RaytraceWorkload
from repro.workloads.barnes import BarnesWorkload
from repro.workloads.custom import CustomWorkload

WORKLOADS = {
    "radix": RadixWorkload,
    "fft": FFTWorkload,
    "fmm": FMMWorkload,
    "ocean": OceanWorkload,
    "raytrace": RaytraceWorkload,
    "barnes": BarnesWorkload,
}

#: Paper presentation order (Tables 2-4).
PAPER_ORDER = ("radix", "fft", "fmm", "raytrace", "barnes", "ocean")


def make_workload(name: str, **config) -> Workload:
    """Instantiate a registered workload by name."""
    try:
        factory = WORKLOADS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return factory(**config)


__all__ = [
    "BarnesWorkload",
    "CustomWorkload",
    "FFTWorkload",
    "FMMWorkload",
    "OceanWorkload",
    "PAPER_ORDER",
    "RadixWorkload",
    "RaytraceWorkload",
    "SegmentSpec",
    "WORKLOADS",
    "Workload",
    "WorkloadContext",
    "make_workload",
]
