"""The paper's primary contribution: dynamic address-translation options.

This package holds the translation hardware models — the generic
:class:`TranslationBuffer` (covering TLBs and V-COMA's DLB in
fully-associative, set-associative and direct-mapped organizations with
the paper's random replacement), banks of buffers for size sweeps, and
the :class:`Scheme` enumeration of the five designs (L0-TLB, L1-TLB,
L2-TLB, L3-TLB, V-COMA).

V-COMA's DLB is a :class:`TranslationBuffer` at the home node.  A DLB
miss costs the page-table walk's ``translation_miss_penalty``; no page
table or directory page is simulated, because every page is preloaded
and the walk always hits.
"""

from repro.core.tlb import Organization, TranslationBuffer, TranslationBank
from repro.core.schemes import Scheme, TapPoint, TAP_OF_SCHEME, SCHEME_ORDER

__all__ = [
    "Organization",
    "SCHEME_ORDER",
    "Scheme",
    "TAP_OF_SCHEME",
    "TapPoint",
    "TranslationBank",
    "TranslationBuffer",
]
