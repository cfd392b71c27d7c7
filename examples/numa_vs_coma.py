#!/usr/bin/env python3
"""Why COMA before V-COMA?  (paper Section 2 / Figure 1)

The paper's path to V-COMA starts with a negative result: in a CC-NUMA,
placing the TLB at the home memory (SHARED-TLB) is unattractive because
"capacity misses are remote most of the time".  This example runs the
same workload on both machines — identical caches, latencies, network,
translation hardware — and shows:

* the attraction memory converting remote capacity misses into local
  hits (execution time and remote-stall comparison);
* the home translation stream shrinking (the AM filters it), which is
  why the shared-translation idea only becomes V-COMA-cheap in a COMA;
* per-reference latency distributions for both machines.

Run:  python examples/numa_vs_coma.py
"""

from repro import MachineParams, Scheme, Simulator, TapPoint, make_workload
from repro.analysis import run_miss_sweep
from repro.numa import NumaMachine
from repro.system.taps import StudyAgent
from repro.core.tlb import Organization

SIZES = (8, 32)
ORGS = (Organization.FULLY_ASSOCIATIVE,)


def run_numa(params, workload_name):
    """The CC-NUMA machine has no compiled twin: one scalar run."""
    agent = StudyAgent(params, sizes=SIZES, orgs=ORGS)
    machine = NumaMachine(
        params, Scheme.V_COMA, make_workload(workload_name, intensity=0.2), agent=agent
    )
    return Simulator(machine).run()


def run_coma(params, workload_name):
    """The V-COMA leg is an ordinary miss sweep (capture + replay)."""
    return run_miss_sweep(
        params, make_workload(workload_name, intensity=0.2), sizes=SIZES, orgs=ORGS
    )


def main() -> None:
    params = MachineParams.scaled_down(factor=8, nodes=8, page_size=512)
    workload = "ocean"
    print(f"Workload: {workload} (grid sweeps; working set >> SLC, << AM)\n")

    numa = run_numa(params, workload)
    coma = run_coma(params, workload)

    print(f"{'':22s}{'CC-NUMA (SHARED-TLB)':>22s}{'V-COMA':>14s}")
    numa_b, coma_b = numa.average_breakdown(), coma.average_breakdown()
    print(f"{'total time (cycles)':22s}{numa.total_time:>22,}{coma.total_time:>14,}")
    print(f"{'remote stall / node':22s}{numa_b.rem_stall:>22,.0f}{coma_b.rem_stall:>14,.0f}")
    print(f"{'local stall / node':22s}{numa_b.loc_stall:>22,.0f}{coma_b.loc_stall:>14,.0f}")

    numa_home = numa.study_results()
    coma_home = coma.study_results()
    print(f"{'home lookups':22s}{numa_home.accesses(TapPoint.HOME):>22,}"
          f"{coma_home.accesses(TapPoint.HOME):>14,}")
    print(f"{'home misses (8-entry)':22s}{numa_home.misses(TapPoint.HOME, 8):>22,}"
          f"{coma_home.misses(TapPoint.HOME, 8):>14,}")

    speedup = numa.total_time / coma.total_time
    print(f"\nThe attraction memory makes the same program {speedup:.2f}x faster,")
    print("and leaves the shared home translation structure with "
          f"{coma_home.accesses(TapPoint.HOME) / max(1, numa_home.accesses(TapPoint.HOME)):.0%} "
          "of the NUMA home's lookup traffic.")

    print("\nLoad-latency distribution (V-COMA):")
    print(coma.read_latency.render())


if __name__ == "__main__":
    main()
