"""System assembly: nodes, the whole machine, and the simulator.

:class:`Machine` wires one of the five translation schemes over the
substrates (caches, attraction memories, COMA-F protocol, crossbar,
virtual-memory system), preloads a workload's data set, and
:class:`Simulator` interleaves the per-node reference streams to produce
miss statistics, pressure profiles, and the paper's time breakdowns.
"""

from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE
from repro.system.taps import StudyAgent, StudyResults, TimingAgent
from repro.system.machine import Machine
from repro.system.simulator import Simulator

__all__ = [
    "BARRIER",
    "LOCK",
    "Machine",
    "READ",
    "Simulator",
    "StudyAgent",
    "StudyResults",
    "TimingAgent",
    "UNLOCK",
    "WRITE",
]
