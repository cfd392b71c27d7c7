"""Vectorized TLB/DLB bank replay kernels.

Miss-count experiments (paper Figures 8/9, Tables 2/3) are decoupled:
translation state never feeds back into the cache hierarchy, so a
recorded tap stream can drive translation buffers of *every* size and
organization after the fact.  This module is the replay half of that
pipeline: given one page-number stream, compute the miss count of each
``(entries, organization)`` design point **bit-identically** to feeding
the same stream through :class:`~repro.core.tlb.TranslationBuffer`.

Three kernels:

* **direct-mapped** — fully vectorized.  A one-way set caches exactly
  the last page that indexed it, so the miss count is the number of
  page *transitions* within each set's access subsequence; one stable
  sort by set index exposes those subsequences to numpy.  No RNG is
  involved (a 1-way set never draws a victim), matching the scalar
  path's RNG consumption of zero.
* **random-replacement (fully/set-associative)** — vectorized scan with
  a scalar miss path.  Random replacement only mutates state on a miss,
  so any stretch of hits can be validated in one numpy gather against
  the residency table; the kernel scans adaptively-sized chunks and
  only drops to Python for the tail of a chunk containing a miss.  The
  miss path reproduces :meth:`TranslationBuffer._install` exactly —
  same ``random.Random`` substream, same rejection-sampled
  ``getrandbits`` victim draw — so the eviction sequence, and therefore
  every downstream hit/miss, is identical.
* **scalar fallback** — feeds a real :class:`TranslationBuffer`.  Used
  when numpy is unavailable (or ``REPRO_NO_NUMPY`` is set), keeping
  numpy an optional dependency; identical by construction.

Kernel selection is automatic per organization and per process; every
path yields the same miss counts, asserted by
``tests/unit/test_replay.py`` and the integration equivalence suite.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.core.tlb import Organization, TranslationBank, TranslationBuffer

#: Set non-empty to force the pure-Python kernels even when numpy is
#: importable (used by the CI matrix and the equivalence tests).
NO_NUMPY_ENV = "REPRO_NO_NUMPY"

#: Chunk bounds for the random-replacement scan.  The chunk doubles
#: after an all-hit gather and halves after a chunk containing a miss,
#: so hit-dominated streams run at gather speed while miss-dense
#: streams degrade gracefully toward the scalar loop.
_MIN_CHUNK = 256
_MAX_CHUNK = 65536

_numpy_module = None  # unresolved


def get_numpy():
    """The numpy module, or None (not installed / disabled by env)."""
    global _numpy_module
    if os.environ.get(NO_NUMPY_ENV):
        return None
    if _numpy_module is None:
        try:
            import numpy
            _numpy_module = numpy
        except ImportError:
            _numpy_module = False
    return _numpy_module or None


def _compiled_backend():
    """The compiled fastsim backend, or None.

    Imported lazily: :mod:`repro.core.timing_kernels` imports this
    module for :func:`get_numpy`, so a top-level import would be
    circular.  ``get_backend`` honors ``REPRO_NO_COMPILED`` per call.
    """
    from repro.core.timing_kernels import get_backend

    return get_backend()


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


class ReplayStream:
    """One recorded page-number stream, with numpy state shared across
    every design point replayed from it (the dense-id relabelling and
    the page array are config-independent)."""

    __slots__ = (
        "pages",
        "_np",
        "_arr",
        "_ids",
        "_ids_list",
        "_pages_list",
        "_unique",
        "_i64",
    )

    def __init__(self, pages: Sequence[int]) -> None:
        self.pages = pages
        self._np = get_numpy()
        self._arr = None
        self._ids = None
        self._ids_list = None
        self._pages_list = None
        self._unique = 0
        self._i64 = None

    def __len__(self) -> int:
        return len(self.pages)

    # -- lazy shared state ----------------------------------------------
    def _page_array(self):
        if self._arr is None:
            self._arr = self._np.asarray(self.pages, dtype=self._np.uint64)
        return self._arr

    def _pages_i64(self):
        """The stream as a signed-64 column (the compiled kernel's input
        type); converted once per stream, shared by every design point."""
        if self._i64 is None:
            if self._np is not None:
                self._i64 = self._np.asarray(self.pages, dtype=self._np.int64)
            else:
                import array as _array

                self._i64 = _array.array("q", self.pages)
        return self._i64

    def _dense_ids(self):
        """Pages relabelled to 0..U-1 so residency fits a flat table."""
        if self._ids is None:
            unique, ids = self._np.unique(self._page_array(), return_inverse=True)
            self._ids = ids
            self._unique = int(unique.size)
            self._ids_list = ids.tolist()
            self._pages_list = self._page_array().tolist()
        return self._ids

    # -- kernels ---------------------------------------------------------
    def misses(self, entries: int, organization: Organization, rng) -> int:
        """Miss count for one design point, bit-identical to the scalar
        :class:`TranslationBuffer` fed the same stream with ``rng``."""
        assoc, sets = _buffer_geometry(entries, organization)
        if self.pages:
            compiled = _compiled_backend()
            if compiled is not None:
                return self._compiled_misses(entries, assoc, sets, rng, compiled)
        if self._np is None or not self.pages:
            return _scalar_misses(self.pages, entries, organization, assoc, rng)
        if assoc == 1:
            return self._direct_mapped_misses(sets)
        return self._random_replacement_misses(assoc, sets, rng)

    def _compiled_misses(self, entries: int, assoc: int, sets: int, rng, compiled) -> int:
        """One ``fs_bank_run`` call — the compiled sweep engine's bank
        kernel replaying this stream through one buffer geometry.  The
        RNG is advanced exactly as the scalar buffer would (the C side
        runs the same rejection-sampled victim draws)."""
        from repro.core import timing_kernels as tk

        ffi, lib = compiled.ffi, compiled.lib
        pages = self._pages_i64()
        rng_words = tk.rng_state_words(rng)
        tags = ffi.new("int64_t[]", sets * assoc)
        lens = ffi.new("int32_t[]", sets)
        count = int(
            lib.fs_bank_run(
                entries,
                sets,
                assoc,
                ffi.from_buffer("uint32_t[]", rng_words),
                ffi.from_buffer("int64_t[]", pages),
                len(pages),
                tags,
                lens,
            )
        )
        if count < 0:
            raise MemoryError("compiled bank replay: allocation failed")
        tk.load_rng_state(rng, rng_words)
        return count

    def _direct_mapped_misses(self, sets: int) -> int:
        np = self._np
        pages = self._page_array()
        set_idx = pages & np.uint64(sets - 1)
        order = np.argsort(set_idx, kind="stable")
        sorted_sets = set_idx[order]
        sorted_pages = pages[order]
        # First access of each set group misses; within a group, every
        # page transition misses (the single way held a different page).
        miss = np.empty(len(pages), dtype=bool)
        miss[0] = True
        np.not_equal(sorted_pages[1:], sorted_pages[:-1], out=miss[1:])
        miss[1:] |= sorted_sets[1:] != sorted_sets[:-1]
        return int(np.count_nonzero(miss))

    def _random_replacement_misses(self, assoc: int, sets: int, rng) -> int:
        np = self._np
        ids = self._dense_ids()
        ids_list = self._ids_list
        pages_list = self._pages_list
        resident = bytearray(self._unique)
        res_view = np.frombuffer(resident, dtype=np.uint8)
        tags: List[List[int]] = [[] for _ in range(sets)]
        set_mask = sets - 1
        getrandbits = rng.getrandbits
        bits = assoc.bit_length()
        misses = 0
        n = len(ids_list)
        i = 0
        chunk = _MIN_CHUNK * 4
        while i < n:
            hi = min(n, i + chunk)
            seg = res_view[ids[i:hi]]
            first = int(seg.argmin())
            if seg[first]:
                # Hits throughout: no state change, nothing to replay.
                i = hi
                if chunk < _MAX_CHUNK:
                    chunk <<= 1
                continue
            for j in range(i + first, hi):
                page_id = ids_list[j]
                if resident[page_id]:
                    continue
                misses += 1
                ways = tags[pages_list[j] & set_mask]
                if len(ways) < assoc:
                    ways.append(page_id)
                else:
                    # Same rejection-sampled draw as TranslationBuffer.
                    way = getrandbits(bits)
                    while way >= assoc:
                        way = getrandbits(bits)
                    resident[ways[way]] = 0
                    ways[way] = page_id
                resident[page_id] = 1
            i = hi
            if chunk > _MIN_CHUNK:
                chunk >>= 1
        return misses


def _scalar_misses(
    pages: Sequence[int],
    entries: int,
    organization: Organization,
    assoc: int,
    rng,
) -> int:
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


def bank_miss_counts(
    pages: Sequence[int],
    configs: Iterable[Tuple[int, Organization]],
    seed: int,
    name: str,
    stream: Optional[ReplayStream] = None,
) -> Dict[Tuple[int, Organization], int]:
    """Replay one stream through a whole bank of design points.

    ``seed``/``name`` address the same RNG substreams a
    :class:`TranslationBank` constructed with ``(seed, name)`` would
    give its member buffers, so the result equals
    ``TranslationBank(configs, seed, name)`` fed ``pages`` one by one.
    """
    if stream is None:
        stream = ReplayStream(pages)
    counts: Dict[Tuple[int, Organization], int] = {}
    for entries, organization in configs:
        key = (entries, organization)
        if key in counts:
            continue
        rng = make_rng(seed, name, entries, organization.value)
        counts[key] = stream.misses(entries, organization, rng)
    return counts
