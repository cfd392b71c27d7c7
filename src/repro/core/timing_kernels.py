"""Compiled columnar timing kernels (backend loader + stream columnarization).

The timing path's hot loop — heap-ordered reference interleaving through
FLC/SLC/AM lookups, protocol transitions, crossbar charging, barriers and
FIFO locks — is irreducibly sequential but involves no Python-level
decisions.  Each node's reference stream is materialized into columnar
arrays (one ``uint8`` opcode column, one ``int64`` value column) and
handed to ``fastsim.c``, which runs the whole machine — heap, caches,
attraction memories, directory, TLB/DLB, RNG, sync — in one call.

The columns of the six paper workloads are written in C too:
``fs_stream`` holds a twin of each workload's ``node_stream``, fed by
the numeric recipe the workload builds (``stream_recipe``), and
:func:`stream_columns` calls it once per node on the cache-miss path
of :func:`materialize_shared`.  A twin reproduces its generator byte
for byte — CPython's MT19937 draws, ``random()``, ``randrange`` and
``float ** float`` included — or declines, and the generator is
drained by :func:`materialize_stream` as before.  The generators stay
the specification: the scalar engine and the traffic analysis still
drain them.

The scalar engine in :mod:`repro.system.simulator` is retained as the
differential-testing oracle; every counter, breakdown, histogram, cache
image, and RNG state the compiled engine produces matches it bit for bit
(``tests/integration/test_timing_equivalence.py``): the summary is read
straight from C, and the final machine image (``fs_image``) is read
only by the differential oracle (:mod:`repro.fuzz.oracle`).

Backend selection:

* The C source is compiled on first use with the host ``gcc`` into a
  per-user cache directory (``$REPRO_FASTSIM_CACHE`` or
  ``~/.cache/repro-fastsim``), keyed by a source hash, and loaded
  through ``cffi``'s ABI mode — no ``Python.h`` or build system needed.
* ``REPRO_NO_COMPILED`` disables the compiled backend entirely; the
  simulator then falls back to the scalar engine.
* Missing ``cffi`` or ``gcc`` degrade the same way: ``get_backend()``
  returns ``None`` and :func:`backend_status` says why.
"""

from __future__ import annotations

import array
import hashlib
import os
import random
import shlex
import subprocess
import tempfile
from typing import Iterable, List, Optional, Tuple

from collections import OrderedDict

#: Set non-empty to force the scalar timing engine even when the
#: compiled backend would load (CI matrix + equivalence tests).
NO_COMPILED_ENV = "REPRO_NO_COMPILED"

#: Override the shared-library cache directory.
CACHE_ENV = "REPRO_FASTSIM_CACHE"

#: Extra compiler flags (shlex-split), folded into the library digest so
#: e.g. a ``-fsanitize=address,undefined`` build caches separately from
#: the production ``-O2`` build (the CI sanitizer leg uses this).
CFLAGS_ENV = "REPRO_FASTSIM_CFLAGS"

#: Words drawn by the post-dlopen RNG self-test probe.
_SELFTEST_DRAWS = 16

#: Seeds the self-test probe seeds in C, compared with ``random.Random``:
#: zero, one below 2**32 (a one-word key) and one above (two words).
_SELFTEST_SEEDS = (0, 0xC0A7, 0x1234_5678_9ABC_DEF0)

_C_SOURCE = os.path.join(os.path.dirname(__file__), "fastsim.c")

# ---------------------------------------------------------------------------
# C ABI description (must match fastsim.c exactly)
# ---------------------------------------------------------------------------

CDEF = """
typedef struct FastSim FastSim;

FastSim *fs_create(const int64_t *geom);
void fs_destroy(FastSim *s);
void fs_set_stream(FastSim *s, int node, const uint8_t *ops, const int64_t *vals, int64_t len);
int fs_preload(FastSim *s, const int64_t *vpns, const int64_t *ppns, int64_t npages);
void fs_seed_engine(FastSim *s, const uint32_t *state);
void fs_seed_tlb(FastSim *s, int idx, const uint32_t *state);
int fs_run(FastSim *s, int64_t *out);
int64_t fs_sync_words(FastSim *s, int64_t *out);
void fs_export_global(FastSim *s, int64_t *values, int64_t *calls);
void fs_export_node_counters(FastSim *s, int node, int64_t *values, int64_t *calls);
void fs_export_breakdown(FastSim *s, int node, int64_t *out);
void fs_export_hist(FastSim *s, int node, int is_write, int64_t *buckets, int64_t *count_total);
void fs_export_tlb(FastSim *s, int idx, int64_t *stats);
int64_t fs_image(FastSim *s, int64_t *out, int64_t cap);
void fs_rng_selftest(const uint32_t *state, uint32_t *out, int n);
void fs_seed_selftest(uint64_t seed, uint32_t *state, uint32_t *out, int n);
void fs_shuffle_selftest(const uint32_t *state, int32_t *arr, int len);
int fs_set_capture(FastSim *s);
int64_t fs_cap_count(FastSim *s, int tap, int node);
const void *fs_cap_data(FastSim *s, int tap, int node, int *width);
int64_t fs_bank_run(int64_t entries, int64_t sets, int64_t assoc, uint32_t *rng_state,
                    const int64_t *pages, int64_t n, int64_t *tags, int32_t *lens);
int64_t fs_bank_run_set(int64_t nstreams, const void *const *pages, const int64_t *widths,
                        const int64_t *lens, int64_t ngeo, const int64_t *sets,
                        const int64_t *assoc, const uint64_t *seeds, int64_t *misses_out,
                        int64_t nthreads);
int64_t fs_stream(int kind, const int64_t *ints, int64_t nints, const double *reals,
                  int64_t nreals, const int64_t *segs, int64_t nsegs, uint64_t seed,
                  uint8_t *ops, int64_t *vals, int64_t cap);
void fs_set_trace(FastSim *s, const int64_t *cfg);
void fs_trace_sync(FastSim *s, int64_t next_id, int64_t last_time);
const char *fs_trace_take(FastSim *s, int64_t *state);
void fs_trace_open_span(FastSim *s, int i, int64_t *out);
int64_t fs_trace_render(const char *stream, int64_t nbytes,
                        const int32_t *nslots, const int32_t *kind_off,
                        const char *kinds,
                        const char *segs, const int64_t *seg_off,
                        const int32_t *seg_base,
                        const char *strs, const int64_t *str_off, int64_t nstr,
                        char *out, int64_t cap);
"""

# fs_run status codes.
DONE = 0
TRACE_FULL = 1
ERR_PROTOCOL = -1
ERR_CAPACITY = -2
ERR_KEY = -3
ERR_INTERNAL = -4
ERR_DEADLOCK = -5
ERR_BARRIER_TWICE = -6
ERR_UNLOCK = -7
ERR_LOCKS_HELD = -8
ERR_OPCODE = -9

# GEOM vector slots (order of the C enum).
(
    GEOM_NODES,
    GEOM_THINK,
    GEOM_PAGE_BITS,
    GEOM_BLOCK_BITS,
    GEOM_FLC_BLOCK,
    GEOM_FLC_SETS,
    GEOM_FLC_ASSOC,
    GEOM_SLC_BLOCK,
    GEOM_SLC_SETS,
    GEOM_SLC_ASSOC,
    GEOM_AM_SETS,
    GEOM_AM_ASSOC,
    GEOM_SLC_HIT,
    GEOM_AM_HIT,
    GEOM_REQ_CYCLES,
    GEOM_BLK_CYCLES,
    GEOM_DIR_LATENCY,
    GEOM_PENALTY,
    GEOM_VIRTUAL_FLC,
    GEOM_VIRTUAL_SLC,
    GEOM_VIRTUAL_AM,
    GEOM_RELAXED,
    GEOM_TAP,
    GEOM_INCLUDE_L2_WB,
    GEOM_TLB_ENTRIES,
    GEOM_TLB_SETS,
    GEOM_TLB_ASSOC,
    GEOM_MAX_REFS,
    GEOM_AM_BLOCK,
    GEOM_REQ_PAYLOAD,
    GEOM_BLK_PAYLOAD,
    GEOM_DIR_CAPACITY,
    GEOM_MAP_CAPACITY,
    GEOM_CONTENTION,
    GEOM_LEN,
) = range(35)

# Trace configuration slots (order of the C TC_* enum): codec ids,
# phase cadence, drain limit, fault switch, base parent span, then
# global string-table ids — false/true, read/write, one per message
# kind (MessageKind order), one per AM state (AMState order).
(
    TC_REF,
    TC_FETCH,
    TC_UPGRADE,
    TC_INVALIDATE,
    TC_INJECT,
    TC_MSG,
    TC_HIT,
    TC_FILL,
    TC_PHASE,
    TC_BARRIER,
    TC_LOCK,
    TC_PHASE_EVERY,
    TC_LIMIT,
    TC_FAIL_GROWTH,
    TC_PARENT,
    TC_FALSE,
    TC_TRUE,
    TC_READ,
    TC_WRITE,
    TC_MSG_NAMES,
) = range(20)
TC_STATE_NAMES = TC_MSG_NAMES + 10  # N_MSG_KINDS
TC_LEN = TC_STATE_NAMES + 4

# Tap codes (GEOM_TAP slot).
TAP_NONE = -1
TAP_L0 = 0
TAP_L1 = 1
TAP_L2 = 2
TAP_L3 = 3
TAP_HOME = 4

# AM line states, in C numeric order (AMState enum value strings).
AM_STATES = ("invalid", "shared", "master_shared", "exclusive")

#: Global engine counter names, in C index order (fs_export_global).
GLOBAL_COUNTERS = (
    "am_local_hits",
    "remote_reads",
    "remote_writes",
    "upgrades",
    "invalidations",
    "injections",
    "inject_forwards",
    "inject_merges",
    "inject_displacements",
    "sharer_drops",
    "slc_writebacks_to_am",
    "msg_read_request",
    "msg_write_request",
    "msg_upgrade_request",
    "msg_forward",
    "msg_invalidate",
    "msg_ack",
    "msg_sharer_drop",
    "msg_block_reply",
    "msg_inject",
    "msg_inject_forward",
    "msg_local",
    "msg_remote",
    "network_cycles",
    "payload_bytes",
    "contention_cycles",
)

#: Per-node counter names, in C index order (fs_export_node_counters).
NODE_COUNTERS = (
    "reads",
    "writes",
    "hidden_store_cycles",
    "remote_accesses",
    "am_local_accesses",
    "slc_writebacks",
    "slc_coherence_writebacks",
    "inclusion_invalidations",
    "inclusion_downgrades",
)

N_HIST_BUCKETS = 64
RNG_STATE_WORDS = 625  # mt[624] + index, from random.Random.getstate()

# ---------------------------------------------------------------------------
# backend loading
# ---------------------------------------------------------------------------


class CompiledBackend:
    """A loaded fastsim shared library plus its cffi FFI."""

    __slots__ = ("ffi", "lib", "path", "digest")

    def __init__(self, ffi, lib, path: str, digest: str = "") -> None:
        self.ffi = ffi
        self.lib = lib
        self.path = path
        #: Source+flags digest (the cache key in the library name).
        self.digest = digest


_backend: Optional[CompiledBackend] = None
_backend_failure: Optional[str] = None
_backend_resolved = False
#: Library files quarantined this process (corrupt/stale ``.so``s moved
#: aside by :func:`_build_library` / the self-test probe).
_quarantined_libraries = 0


def _cache_dir() -> str:
    override = os.environ.get(CACHE_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-fastsim")


def build_flags() -> List[str]:
    """Extra gcc flags from :data:`CFLAGS_ENV` (shlex rules)."""
    raw = os.environ.get(CFLAGS_ENV, "")
    return shlex.split(raw) if raw else []


def _source_digest(source: bytes, flags: Iterable[str] = ()) -> str:
    hasher = hashlib.sha256(source)
    for flag in flags:
        hasher.update(b"\0" + flag.encode("utf-8"))
    return hasher.hexdigest()[:16]


def _file_digest(path: str) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _sidecar_path(target: str) -> str:
    return target + ".sha256"


def _verify_library(target: str) -> Optional[str]:
    """None when the cached ``.so`` matches its digest sidecar, else a
    short reason why it must be quarantined and rebuilt."""
    try:
        with open(_sidecar_path(target)) as handle:
            expected = handle.read().strip()
    except OSError:
        return "digest sidecar missing"
    try:
        actual = _file_digest(target)
    except OSError as exc:
        return f"unreadable ({exc})"
    if actual != expected:
        return "digest mismatch (corrupt or tampered binary)"
    return None


def quarantine_library(target: str, cache: Optional[str] = None) -> Optional[str]:
    """Move a suspect ``.so`` (and its sidecar) aside; returns the new
    path, or None if the file had already vanished.  Renames within the
    cache dir, so a concurrent loader holding the old path is safe."""
    global _quarantined_libraries
    cache = cache or os.path.dirname(target)
    name = os.path.basename(target)
    dest = os.path.join(cache, f"{name}.corrupt-{os.getpid()}-{os.urandom(2).hex()}")
    try:
        os.replace(target, dest)
    except OSError:
        dest = None
    try:
        os.unlink(_sidecar_path(target))
    except OSError:
        pass
    _quarantined_libraries += 1
    from repro.obs import runtime as _runtime

    _runtime.record_library_quarantine()
    return dest


def _build_library(source_path: str) -> str:
    """Compile fastsim.c into the cache dir; return the .so path.

    The library name carries a hash of the source *and* the extra
    :data:`CFLAGS_ENV` flags, so edits to the C file (or a sanitizer
    build) force a rebuild while repeated runs reuse the cached binary.
    The build lands under a temp name and is moved in with
    ``os.replace`` so concurrent processes can race harmlessly, and a
    ``.sha256`` sidecar records the binary's digest: a cached ``.so``
    that fails re-verification (bit rot, torn write, tampering) is
    quarantined and rebuilt instead of dlopen'd blind.
    """
    with open(source_path, "rb") as handle:
        source = handle.read()
    flags = build_flags()
    cache = _cache_dir()
    os.makedirs(cache, exist_ok=True)
    target = os.path.join(cache, f"fastsim-{_source_digest(source, flags)}.so")
    if os.path.exists(target):
        problem = _verify_library(target)
        if problem is None:
            return target
        quarantine_library(target, cache)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            ["gcc", "-O2", "-shared", "-fPIC", "-pthread"] + flags
            + ["-o", tmp, source_path, "-lm"],
            check=True,
            capture_output=True,
        )
        digest = _file_digest(tmp)
        side_fd, side_tmp = tempfile.mkstemp(suffix=".sha256", dir=cache)
        with os.fdopen(side_fd, "w") as handle:
            handle.write(digest + "\n")
        os.replace(side_tmp, _sidecar_path(target))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _self_test(ffi, lib) -> Optional[str]:
    """Probe a freshly-loaded library before trusting it with a run.

    Exercises the pure functions whose correctness everything else
    leans on — the Mersenne Twister core (must continue CPython's exact
    draw sequence), its seeding (``random.Random(int)``'s state and
    first draws, for seeds on both sides of 2**32 and zero) and the
    Fisher-Yates shuffle (must match ``random.shuffle``).  A
    miscompiled, truncated, or ABI-skewed binary fails here instead of
    corrupting simulation results.
    """
    try:
        rng = random.Random(0xC0A7)
        words = rng.getstate()[1]
        state = ffi.new("uint32_t[]", words)
        out = ffi.new("uint32_t[]", _SELFTEST_DRAWS)
        lib.fs_rng_selftest(state, out, _SELFTEST_DRAWS)
        expected = [rng.getrandbits(32) for _ in range(_SELFTEST_DRAWS)]
        got = [int(out[i]) for i in range(_SELFTEST_DRAWS)]
        if got != expected:
            return "MT19937 draw sequence diverges from random.Random"

        for seed in _SELFTEST_SEEDS:
            rng = random.Random(seed)
            lib.fs_seed_selftest(seed, state, out, _SELFTEST_DRAWS)
            if list(state) != list(rng.getstate()[1]):
                return f"MT19937 seeding diverges from random.Random({seed:#x})"
            expected = [rng.getrandbits(32) for _ in range(_SELFTEST_DRAWS)]
            if list(out) != expected:
                return f"MT19937 draws after seeding diverge from random.Random({seed:#x})"

        rng = random.Random(0x5EED)
        words = rng.getstate()[1]
        state = ffi.new("uint32_t[]", words)
        arr = ffi.new("int32_t[]", list(range(32)))
        lib.fs_shuffle_selftest(state, arr, 32)
        reference = list(range(32))
        rng.shuffle(reference)
        if [int(arr[i]) for i in range(32)] != reference:
            return "shuffle diverges from random.shuffle"

        problem = _stream_self_test(ffi, lib)
        if problem is not None:
            return problem
    except Exception as exc:  # missing symbol, bad pointer, ...
        return f"probe crashed ({type(exc).__name__}: {exc})"
    return None


def _stream_self_test(ffi, lib) -> Optional[str]:
    """Two short stream twins against their Python generators.

    RAYTRACE draws ``random() ** 2.5`` for its zipf scene reads and FMM
    ``random() < descend`` and ``randrange`` for its tree walks, so a
    library whose float semantics differ from the interpreter's is
    refused here rather than trusted with every run's streams.
    """
    from repro.common.address import AddressLayout
    from repro.common.params import MachineParams
    from repro.system.machine import build_address_space
    from repro.workloads import FMMWorkload, RaytraceWorkload

    params = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
    layout = AddressLayout.from_params(params)
    for workload in (
        RaytraceWorkload(
            intensity=0.05, rays_per_task=3, stack_depth=1, stack_groups=1, scene_skew=2.5
        ),
        FMMWorkload(intensity=0.01, iterations=1, interactions_per_particle=3),
    ):
        _, ctx = build_address_space(params, layout, workload)
        recipe = workload.stream_recipe(1, ctx)
        got = None if recipe is None else _run_recipe(ffi, lib, recipe)
        want = materialize_stream(workload.node_stream(1, ctx))
        if got is None or got[0] != want[0] or got[1] != want[1]:
            return f"{workload.name} stream diverges from its Python generator"
    return None


def _resolve_backend() -> None:
    global _backend, _backend_failure, _backend_resolved
    _backend_resolved = True
    try:
        import cffi
    except ImportError:
        _backend_failure = "cffi not installed"
        return
    if not os.path.exists(_C_SOURCE):
        _backend_failure = "fastsim.c missing"
        return
    # One retry: a cached .so that passes digest verification but fails
    # the functional self-test is quarantined and rebuilt from source
    # before the backend is declared unusable.
    for attempt in (1, 2):
        try:
            library = _build_library(_C_SOURCE)
        except (subprocess.CalledProcessError, FileNotFoundError, OSError) as exc:
            detail = ""
            if isinstance(exc, subprocess.CalledProcessError) and exc.stderr:
                detail = ": " + exc.stderr.decode("utf-8", "replace").strip()[:200]
            _backend_failure = f"compile failed ({type(exc).__name__}{detail})"
            return
        try:
            ffi = cffi.FFI()
            ffi.cdef(CDEF)
            lib = ffi.dlopen(library)
        except Exception as exc:  # dlopen / cdef problems
            _backend_failure = f"dlopen failed ({exc})"
            if attempt == 1:
                quarantine_library(library)
                continue
            return
        problem = _self_test(ffi, lib)
        if problem is None:
            digest = os.path.basename(library)[len("fastsim-"):-len(".so")]
            _backend = CompiledBackend(ffi, lib, library, digest)
            _backend_failure = None
            return
        _backend_failure = f"self-test failed ({problem})"
        if attempt == 1:
            quarantine_library(library)
    # Both the cached and the freshly-rebuilt library failed.


def reset_backend() -> None:
    """Forget the cached resolution (tests and ``repro doctor``)."""
    global _backend, _backend_failure, _backend_resolved
    _backend = None
    _backend_failure = None
    _backend_resolved = False


def get_backend() -> Optional[CompiledBackend]:
    """The compiled timing backend, or None (disabled / unavailable).

    The environment gate is honored per call — tests flip it at runtime
    — while the expensive compile/dlopen resolution is cached for the
    process lifetime.
    """
    if os.environ.get(NO_COMPILED_ENV):
        return None
    if not _backend_resolved:
        _resolve_backend()
    return _backend


def backend_status() -> str:
    """Human-readable availability: "compiled" or a fallback reason."""
    if os.environ.get(NO_COMPILED_ENV):
        return f"disabled ({NO_COMPILED_ENV})"
    if not _backend_resolved:
        _resolve_backend()
    if _backend is not None:
        return "compiled"
    return _backend_failure or "unavailable"


def backend_health() -> dict:
    """Structured backend state for the degradation ladder and
    ``repro doctor``: status, library path + digest, build flags, and
    how many cached libraries this process has quarantined."""
    status = backend_status()
    info = {
        "status": "ok" if status == "compiled" else "unavailable",
        "detail": status,
        "path": None,
        "digest": None,
        "cflags": build_flags(),
        "quarantined_libraries": _quarantined_libraries,
    }
    if _backend is not None and not os.environ.get(NO_COMPILED_ENV):
        info["path"] = _backend.path
        info["digest"] = _backend.digest
    return info


# ---------------------------------------------------------------------------
# columnar stream materialization
# ---------------------------------------------------------------------------

#: Generator kinds of ``fs_stream``, in the C ``GEN_*`` order: the
#: registered paper workloads, each with a C twin of its ``node_stream``.
STREAM_KINDS = ("radix", "fft", "fmm", "ocean", "raytrace", "barnes")

#: Python errors a recipe's own arithmetic can raise on a config its
#: generator rejects too; the twin then declines and the generator
#: raises the real error.
_RECIPE_ERRORS = (ArithmeticError, LookupError, TypeError, ValueError)


def stream_columns(workload, node: int, ctx):
    """One node's ``(ops, values)`` columns from the workload's C twin.

    Equal byte for byte to ``materialize_stream(workload.node_stream(
    node, ctx))`` (``benchmarks/check_stream_equivalence.py``), or None
    where the twin declines: no compiled backend, a workload whose type
    is not exactly one of the registered paper classes (a subclass may
    override its generator), a recipe value out of the twin's range
    (:func:`repro.workloads.base.stream_recipe`), or a failed
    ``Segment.address`` bounds check.  The caller then drains the
    Python generator, which raises whatever it raises.
    """
    backend = get_backend()
    if backend is None:
        return None
    from repro.workloads import WORKLOADS
    from repro.workloads.base import WorkloadContext

    if type(workload) not in WORKLOADS.values() or type(ctx) is not WorkloadContext:
        return None
    if type(node) is not int or not 0 <= node < ctx.params.nodes:
        return None
    try:
        recipe = workload.stream_recipe(node, ctx)
    except _RECIPE_ERRORS:
        return None
    if recipe is None:
        return None
    return _run_recipe(backend.ffi, backend.lib, recipe)


def _run_recipe(ffi, lib, recipe):
    """Expand a :class:`~repro.workloads.base.StreamRecipe` with
    ``fs_stream``: the columns, or None if the twin declines."""
    # Tuples enter as temporary C arrays and the columns take the
    # function's own pointer types: no C type string is parsed, which
    # would cost ~0.4 ms each in the load-time self-test.
    ops_type, vals_type = ffi.typeof(lib.fs_stream).args[8:10]
    segs = tuple(v for segment in recipe.segments for v in (segment.base, segment.size))
    ops = array.array("B", [0]) * recipe.capacity
    vals = array.array("q", [0]) * recipe.capacity
    count = lib.fs_stream(
        STREAM_KINDS.index(recipe.kind),
        recipe.ints,
        len(recipe.ints),
        recipe.reals,
        len(recipe.reals),
        segs,
        len(recipe.segments),
        recipe.seed,
        ffi.from_buffer(ops_type, ops),
        ffi.from_buffer(vals_type, vals),
        recipe.capacity,
    )
    if count < 0:
        return None
    del ops[count:]
    del vals[count:]
    return ops, vals


def materialize_stream(stream: Iterable[Tuple[int, int]]):
    """Drain one node's ``(op, value)`` stream into columnar arrays.

    Returns ``(ops, values)``: a ``uint8`` opcode column and an
    ``int64`` value column, as ``array.array``.  Both expose the buffer
    protocol, so the compiled backend ingests them via
    ``ffi.from_buffer`` with no copies beyond this one materialization
    pass.
    """
    ops_list: List[int] = []
    vals_list: List[int] = []
    append_op = ops_list.append
    append_val = vals_list.append
    for op, value in stream:
        append_op(op)
        append_val(value)
    return array.array("B", ops_list), array.array("q", vals_list)


# ---------------------------------------------------------------------------
# grid-level stream sharing
# ---------------------------------------------------------------------------

class StreamCache:
    """Size-capped in-process LRU of materialized ``(ops, vals)`` columns.

    A sweep/timing grid varies scheme, TLB/DLB geometry, and page size
    across cells, but every cell of the same workload drains the *same*
    reference stream — regeneration per cell is pure waste.  Columns are
    therefore keyed by ``(stream_key, node)`` where ``stream_key``
    identifies the workload recipe (``JobSpec.trace_hash()`` in grid
    runs — the spec identity *minus* bank sizes/orgs and timing knobs).

    Consumers treat cached columns as immutable — the compiled engine
    only ever reads them (``const`` columns in C), and the scalar path
    never sees them.  ``max_bytes`` caps the columns' total size.
    """

    __slots__ = ("_entries", "_bytes", "max_bytes", "hits", "misses", "evictions")

    def __init__(self, max_bytes: int = 256 * 1024 * 1024) -> None:
        self._entries: "OrderedDict" = OrderedDict()
        self._bytes = 0
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _cost(columns) -> int:
        ops, vals = columns
        return len(ops) + 8 * len(vals)  # u8 + i64 per reference

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key, columns) -> None:
        cost = self._cost(columns)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        if cost > self.max_bytes:
            return  # larger than the whole cache: never resident
        self._entries[key] = (columns, cost)
        self._bytes += cost
        while self._bytes > self.max_bytes and self._entries:
            _, (_, freed) = self._entries.popitem(last=False)
            self._bytes -= freed
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    @property
    def total_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)


_stream_cache = StreamCache()


def _clear_stream_cache_after_fork() -> None:
    """Drop fork-inherited columns in child processes.

    A forked ``BatchRunner`` worker inherits the parent's entries by
    copy; keeping them would double-count the byte cap across the pool
    and let parent/child LRU state silently diverge.  Children start
    cold and repopulate their own cache (counters reset too, so
    worker-local hit rates mean what they say)."""
    _stream_cache.clear()
    _stream_cache.hits = 0
    _stream_cache.misses = 0
    _stream_cache.evictions = 0


if hasattr(os, "register_at_fork"):  # absent only on non-posix platforms
    os.register_at_fork(after_in_child=_clear_stream_cache_after_fork)


def stream_cache() -> StreamCache:
    """The process-wide materialized-stream LRU."""
    return _stream_cache


def materialize_shared(stream_key, node: int, stream_factory, columns_factory=None):
    """Materialize one node's columns, shared across a grid via the LRU.

    ``stream_factory`` is a zero-argument callable producing the
    ``(op, value)`` iterable; it is only invoked on a cache miss, and
    only if ``columns_factory`` (a zero-argument callable, typically a
    workload's C twin through :func:`stream_columns`) is absent or
    returns None.  With ``stream_key=None`` (no workload identity
    available) the cache is bypassed entirely.
    """
    if stream_key is None:
        return _materialize(stream_factory, columns_factory)
    key = (stream_key, node)
    columns = _stream_cache.get(key)
    if columns is not None:
        return columns
    columns = _materialize(stream_factory, columns_factory)
    _stream_cache.put(key, columns)
    return columns


def _materialize(stream_factory, columns_factory):
    columns = columns_factory() if columns_factory is not None else None
    if columns is None:
        columns = materialize_stream(stream_factory())
    return columns


# ---------------------------------------------------------------------------
# RNG state marshalling
# ---------------------------------------------------------------------------


def rng_state_words(rng) -> "array.array":
    """Flatten ``random.Random.getstate()`` into 625 uint32 words.

    The Mersenne Twister state travels to C verbatim (mt[0..623] plus
    the stream index), so the compiled engine continues the exact draw
    sequence with no seeding-algorithm replication.
    """
    version, internal, gauss = rng.getstate()
    if version != 3 or len(internal) != RNG_STATE_WORDS or gauss is not None:
        raise ValueError("unsupported random.Random state shape")
    return array.array("I", internal)

