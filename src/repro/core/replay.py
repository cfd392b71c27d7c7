"""TLB/DLB bank replay.

Miss-count experiments (paper Figures 8/9, Tables 2/3) are decoupled:
translation state never feeds back into the cache hierarchy, so a
recorded tap stream can drive translation buffers of *every* size and
organization after the fact.  This module is the replay half of that
pipeline: given named page-number streams (one per ``(tap, node)``
bank), compute the miss count of each ``(entries, organization)``
design point on each stream **bit-identically** to feeding the stream
through :class:`~repro.core.tlb.TranslationBuffer`.

Two paths:

* **compiled** — one ``fs_bank_run_set`` call replays every design
  point over every stream of the set.  A task is one stream: it is
  relabelled to dense ids once, then every design point replays it
  with a byte residency table (a hit costs one load).  Streams are
  spread over up to :func:`replay_threads` threads, longest first.
  Each member's Mersenne Twister is seeded in C from the same
  ``substream_seed`` integer ``random.Random`` would be seeded with and
  draws victims with the same rejection-sampled ``getrandbits``
  sequence as :meth:`TranslationBuffer._install`, so the counts do not
  depend on the thread count.
* **scalar** — feeds a real :class:`TranslationBuffer` per stream and
  design point: the differential oracle, and the path when the
  compiled backend is unavailable or ``REPRO_NO_COMPILED`` is set.

Both yield the same miss counts, asserted by ``tests/unit/test_replay.py``
and the integration equivalence suites.
"""

from __future__ import annotations

import array
import multiprocessing
import os
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng, substream_seed
from repro.core.timing_kernels import ERR_INTERNAL, get_backend
from repro.core.tlb import Organization, TranslationBank, TranslationBuffer

Config = Tuple[int, Organization]


def buffer_geometry(entries: int, organization: Organization) -> Tuple[int, int]:
    """(assoc, sets) for one bank member, mirroring TranslationBank;
    a :class:`ConfigurationError` for an invalid entry count."""
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


#: Where the process's cgroups are listed, and where they are mounted.
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _cpu_quota() -> Optional[int]:
    """The CPUs a cgroup CPU quota grants this process, rounded up, or
    ``None`` without one: the tightest ``cpu.max`` (cgroup v2) or
    ``cpu.cfs_quota_us`` / ``cpu.cfs_period_us`` (v1) on the process's
    cgroup and its ancestors.  A container limited with ``--cpus`` may
    still be allowed to run on every core of its host."""
    try:
        with open(_PROC_CGROUP) as listing:
            entries = [line.rstrip("\n").split(":", 2) for line in listing]
    except OSError:
        return None
    limits = []
    for entry in entries:
        if len(entry) != 3:
            continue
        _, controllers, path = entry
        if not controllers:
            base, names = _CGROUP_ROOT, ("cpu.max",)
        elif "cpu" in controllers.split(","):
            base = os.path.join(_CGROUP_ROOT, "cpu")
            names = ("cpu.cfs_quota_us", "cpu.cfs_period_us")
        else:
            continue
        while True:
            try:
                words = []
                for name in names:
                    with open(os.path.join(base + path, name)) as limit:
                        words += limit.read().split()
                quota, period = int(words[0]), int(words[1])  # "max": no quota
                if quota > 0 and period > 0:
                    limits.append(-(-quota // period))
            except (OSError, ValueError, IndexError):
                pass
            if path in ("", "/"):
                break
            path = os.path.dirname(path)
    return min(limits, default=None)


def usable_cpus() -> int:
    """The CPUs this process may use: those it may run on, no more than
    its cgroup CPU quota grants.  It caps both a set replay's threads
    and a ``BatchRunner``'s worker processes."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, cpus)


def replay_threads(streams: int) -> int:
    """Threads for one set replay: :func:`usable_cpus`, at most one per
    non-empty stream.  A worker process of a pool (the
    ``BatchRunner``'s, ``jobs > 1``) replays on one thread, because the
    pool already fills the CPUs."""
    if multiprocessing.parent_process() is not None:
        return 1
    return max(1, min(usable_cpus(), streams))


def _column(pages: Sequence[int]) -> array.array:
    """Recorded columns go in as they are (4- or 8-byte page numbers);
    anything else is copied to signed 8-byte entries."""
    if isinstance(pages, array.array) and pages.typecode in "ILQq" and pages.itemsize in (4, 8):
        return pages
    return array.array("q", pages)


def _set_misses(compiled, streams: Mapping[Hashable, Sequence[int]],
                geometries: Dict[Config, Tuple[int, int]], seeds: Sequence[int],
                threads: int) -> Dict[Hashable, Dict[Config, int]]:
    """One ``fs_bank_run_set`` call over every stream and design point.
    ``seeds`` holds each member's RNG seed, stream-major: one per
    ``(stream, design point)`` in ``streams`` and ``geometries`` order."""
    ffi, lib = compiled.ffi, compiled.lib
    names = list(streams)
    columns = [_column(streams[name]) for name in names]
    configs = list(geometries)
    count = len(configs)
    # The cdata buffers must outlive the call.
    buffers = [ffi.from_buffer(column) for column in columns]
    misses = ffi.new("int64_t[]", len(names) * count)
    status = lib.fs_bank_run_set(
        len(names),
        ffi.new("const void *[]", buffers),
        ffi.new("int64_t[]", [column.itemsize for column in columns]),
        ffi.new("int64_t[]", [len(column) for column in columns]),
        count,
        ffi.new("int64_t[]", [geometries[c][1] for c in configs]),
        ffi.new("int64_t[]", [geometries[c][0] for c in configs]),
        ffi.new("uint64_t[]", seeds),
        misses,
        threads,
    )
    if status == ERR_INTERNAL:
        raise MemoryError("compiled bank replay: allocation failed")
    if status < 0:
        raise ValueError("compiled bank replay: page number outside [0, 2**63) or bad geometry")
    flat = list(misses)
    return {
        name: dict(zip(configs, flat[index * count : (index + 1) * count]))
        for index, name in enumerate(names)
    }


def _threads(streams: Mapping[Hashable, Sequence[int]]) -> int:
    return replay_threads(sum(1 for pages in streams.values() if len(pages)))


def bank_miss_counts(
    streams: Mapping[str, Sequence[int]],
    configs: Iterable[Config],
    seed: int,
) -> Dict[str, Dict[Config, int]]:
    """Replay named streams through a whole bank of design points each.

    Stream ``name``'s counts equal ``TranslationBank(configs, seed,
    name)`` fed its pages one by one: ``seed``/``name`` address the same
    RNG substreams that bank gives its member buffers.  Duplicate
    configs are replayed once.  The compiled kernel spreads the streams
    over :func:`replay_threads` threads; the counts are the same for
    any number.
    """
    geometries = {
        (entries, organization): buffer_geometry(entries, organization)
        for entries, organization in configs
    }
    compiled = get_backend()
    if compiled is not None:
        seeds = [
            substream_seed(seed, name, entries, org.value)
            for name in streams
            for entries, org in geometries
        ]
        return _set_misses(compiled, streams, geometries, seeds, _threads(streams))
    return {
        name: {
            (entries, org): _scalar_misses(
                pages, entries, org, assoc, make_rng(seed, name, entries, org.value)
            )
            for (entries, org), (assoc, _) in geometries.items()
        }
        for name, pages in streams.items()
    }


def buffer_miss_counts(
    streams: Mapping[Tuple, Sequence[int]],
    entries: int,
    seed: int,
) -> Dict[Tuple, int]:
    """Misses of one fully-associative ``entries``-entry buffer per stream.

    Stream ``key``'s count equals ``TranslationBuffer(entries,
    rng=make_rng(seed, *key))`` fed its pages one by one: the key names
    the buffer's RNG substream.  The compiled path replays every stream
    in one ``fs_bank_run_set`` call.
    """
    config = (entries, Organization.FULLY_ASSOCIATIVE)
    geometries = {config: buffer_geometry(*config)}
    compiled = get_backend()
    if compiled is not None:
        seeds = [substream_seed(seed, *key) for key in streams]
        counts = _set_misses(compiled, streams, geometries, seeds, _threads(streams))
        return {key: misses[config] for key, misses in counts.items()}
    return {
        key: _scalar_misses(pages, entries, config[1], entries, make_rng(seed, *key))
        for key, pages in streams.items()
    }
