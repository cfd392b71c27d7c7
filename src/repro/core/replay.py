"""TLB/DLB bank replay.

Miss-count experiments (paper Figures 8/9, Tables 2/3) are decoupled:
translation state never feeds back into the cache hierarchy, so a
recorded tap stream can drive translation buffers of *every* size and
organization after the fact.  This module is the replay half of that
pipeline: given one page-number stream, compute the miss count of each
``(entries, organization)`` design point **bit-identically** to feeding
the same stream through :class:`~repro.core.tlb.TranslationBuffer`.

Two paths:

* **compiled batch** — one ``fs_bank_run_many`` call per stream
  replays every design point.  It relabels pages to dense ids once,
  keeps a byte residency table per design point (a hit costs one
  load), and seeds each member's Mersenne Twister in C from the same
  ``substream_seed`` integer ``random.Random`` would be seeded with,
  drawing victims with the same rejection-sampled ``getrandbits``
  sequence as :meth:`TranslationBuffer._install`.
* **scalar** — feeds a real :class:`TranslationBuffer` per design
  point: the differential oracle, and the path when the compiled
  backend is unavailable or ``REPRO_NO_COMPILED`` is set.

Both yield the same miss counts, asserted by ``tests/unit/test_replay.py``
and the integration equivalence suites.
"""

from __future__ import annotations

import array
from typing import Dict, Iterable, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng, substream_seed
from repro.core.timing_kernels import ERR_INTERNAL, get_backend
from repro.core.tlb import Organization, TranslationBank, TranslationBuffer

Config = Tuple[int, Organization]


def _buffer_geometry(entries: int, organization: Organization) -> Tuple[int, int]:
    """(assoc, sets) for one bank member, mirroring TranslationBank."""
    if entries <= 0 or entries & (entries - 1):
        raise ConfigurationError(f"entries={entries} must be a positive power of two")
    if organization is Organization.FULLY_ASSOCIATIVE:
        assoc = entries
    elif organization is Organization.DIRECT_MAPPED:
        assoc = 1
    else:
        assoc = min(TranslationBank.SET_ASSOC_WAYS, entries)
    return assoc, entries // assoc


def _scalar_misses(pages: Sequence[int], entries: int, organization: Organization,
                   assoc: int, rng) -> int:
    """Pure-Python reference path: a real TranslationBuffer."""
    buffer = TranslationBuffer(
        entries,
        organization,
        assoc=assoc if organization is Organization.SET_ASSOCIATIVE else None,
        rng=rng,
    )
    access = buffer.access
    for page in pages:
        access(page)
    return buffer.misses


def _batch_misses(compiled, pages: Sequence[int],
                     geometries: Dict[Config, Tuple[int, int]],
                     seed: int, name: str) -> Dict[Config, int]:
    """One ``fs_bank_run_many`` call over every design point."""
    ffi, lib = compiled.ffi, compiled.lib
    # Recorded columns go in as they are (4- or 8-byte page numbers).
    if not (isinstance(pages, array.array) and pages.typecode in "ILQq"
            and pages.itemsize in (4, 8)):
        pages = array.array("q", pages)
    configs = list(geometries)
    count = len(configs)
    misses = ffi.new("int64_t[]", count)
    status = lib.fs_bank_run_many(
        ffi.from_buffer(pages),
        pages.itemsize,
        len(pages),
        count,
        ffi.new("int64_t[]", [geometries[c][1] for c in configs]),
        ffi.new("int64_t[]", [geometries[c][0] for c in configs]),
        ffi.new(
            "uint64_t[]",
            [substream_seed(seed, name, entries, org.value) for entries, org in configs],
        ),
        misses,
    )
    if status == ERR_INTERNAL:
        raise MemoryError("compiled bank replay: allocation failed")
    if status < 0:
        raise ValueError("compiled bank replay: page number outside [0, 2**63) or bad geometry")
    return dict(zip(configs, misses))


def bank_miss_counts(
    pages: Sequence[int],
    configs: Iterable[Config],
    seed: int,
    name: str,
) -> Dict[Config, int]:
    """Replay one stream through a whole bank of design points.

    ``seed``/``name`` address the same RNG substreams a
    :class:`TranslationBank` constructed with ``(seed, name)`` would
    give its member buffers, so the result equals
    ``TranslationBank(configs, seed, name)`` fed ``pages`` one by one.
    Duplicate configs are replayed once.
    """
    geometries = {
        (entries, organization): _buffer_geometry(entries, organization)
        for entries, organization in configs
    }
    if len(pages) == 0:
        return dict.fromkeys(geometries, 0)
    compiled = get_backend()
    if compiled is not None:
        return _batch_misses(compiled, pages, geometries, seed, name)
    return {
        (entries, org): _scalar_misses(
            pages, entries, org, assoc, make_rng(seed, name, entries, org.value)
        )
        for (entries, org), (assoc, _) in geometries.items()
    }
