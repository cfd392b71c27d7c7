"""repro — a reproduction of *Options for Dynamic Address Translation in
COMAs* (Qiu & Dubois, 1998).

The library simulates a flat COMA multiprocessor under the paper's five
address-translation designs (L0/L1/L2/L3-TLB and V-COMA) and regenerates
every table and figure of the paper's evaluation.  Quick start::

    from repro import MachineParams, Scheme, TapPoint, make_workload
    from repro.analysis import run_miss_sweep

    params = MachineParams.scaled_down(factor=8, nodes=8, page_size=512)
    result = run_miss_sweep(params, make_workload("ocean"))
    study = result.study_results()
    print(study.curve(TapPoint.HOME))   # the V-COMA DLB miss curve

See README.md for the architecture overview and ``examples/`` for
runnable scenarios.
"""

from repro.common import (
    AddressLayout,
    CapacityError,
    ConfigurationError,
    Counters,
    MachineParams,
    ProtocolError,
    ReproError,
    TimeBreakdown,
)
from repro.core import (
    Organization,
    SCHEME_ORDER,
    Scheme,
    TAP_OF_SCHEME,
    TapPoint,
    TranslationBank,
    TranslationBuffer,
)
from repro.obs import MetricsRegistry, PhaseTimer, Tracer
from repro.system import (
    Machine,
    Simulator,
    StudyAgent,
    StudyResults,
    TimingAgent,
)
from repro.workloads import (
    PAPER_ORDER,
    WORKLOADS,
    CustomWorkload,
    SegmentSpec,
    Workload,
    make_workload,
)

__version__ = "1.9.0"

__all__ = [
    "AddressLayout",
    "CapacityError",
    "ConfigurationError",
    "Counters",
    "CustomWorkload",
    "Machine",
    "MachineParams",
    "MetricsRegistry",
    "Organization",
    "PAPER_ORDER",
    "PhaseTimer",
    "ProtocolError",
    "ReproError",
    "SCHEME_ORDER",
    "Scheme",
    "SegmentSpec",
    "Simulator",
    "StudyAgent",
    "StudyResults",
    "TAP_OF_SCHEME",
    "TapPoint",
    "TimeBreakdown",
    "TimingAgent",
    "Tracer",
    "TranslationBank",
    "TranslationBuffer",
    "WORKLOADS",
    "Workload",
    "__version__",
    "make_workload",
]
