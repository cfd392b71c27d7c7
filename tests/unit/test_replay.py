"""Unit tests for the bank replay (:func:`bank_miss_counts`).

The replay contract is *bit-identical miss counts* with a live
:class:`~repro.core.tlb.TranslationBank` — same RNG substreams, same
rejection-sampling victim draws — for every organization, on the
compiled set kernel and on the scalar path (``REPRO_NO_COMPILED``),
whatever the number of threads the compiled kernel spreads the
streams over.  Every test here checks the replay against live buffers
fed the same stream.
"""

import array
import multiprocessing
import os
import random

import pytest

from repro.common.errors import ConfigurationError
from repro.core import replay
from repro.core.replay import bank_miss_counts, replay_threads
from repro.core.timing_kernels import NO_COMPILED_ENV, get_backend
from repro.core.tlb import Organization, TranslationBank, TranslationBuffer

ORGS = (
    Organization.FULLY_ASSOCIATIVE,
    Organization.SET_ASSOCIATIVE,
    Organization.DIRECT_MAPPED,
)
ENTRIES = (1, 2, 8, 32, 128, 512)
#: Bank seeds on both sides of 2**32.
SEEDS = (7, 0x1_0000_0003)

needs_compiled = pytest.mark.skipif(
    get_backend() is None, reason="compiled backend unavailable"
)


def live_bank(pages, configs, seed=7, name="bank"):
    """Reference miss counts: a real TranslationBank fed one by one."""
    bank = TranslationBank(configs, seed=seed, name=name)
    for page in pages:
        bank.access(page)
    return {config: bank.misses(*config) for config in dict.fromkeys(configs)}


def one_stream(pages, configs, seed=7, name="bank"):
    """A one-stream replay: a one-entry mapping."""
    return bank_miss_counts({name: pages}, configs, seed)[name]


def replay_misses(pages, entries, org, seed=7, name="bank"):
    return one_stream(pages, [(entries, org)], seed, name)[(entries, org)]


def streams():
    """A spread of access patterns exercising every kernel branch."""
    rnd = random.Random(42)
    return {
        "empty": [],
        "single": [5],
        "all-same": [3] * 500,
        "all-distinct": list(range(400)),
        "cyclic": [p % 40 for p in range(600)],
        "skewed": [rnd.randrange(12) for _ in range(800)],
        "wide-random": [rnd.randrange(5000) for _ in range(1200)],
        "phase-shift": [p % 16 for p in range(400)]
        + [200 + (p % 300) for p in range(600)],
        "huge-pages": [rnd.randrange(1 << 40) for _ in range(300)],
        "over-capacity": [rnd.randrange(2048) for _ in range(3000)],
    }


@pytest.fixture(params=["compiled", "no-compiled"])
def backend(request, monkeypatch):
    """Run a test on the compiled batch kernel and on the scalar path."""
    if request.param == "compiled":
        if get_backend() is None:
            pytest.skip("compiled backend unavailable")
    else:
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
    return request.param


class TestKernelEquivalence:
    @pytest.mark.parametrize("org", ORGS, ids=lambda o: o.value)
    @pytest.mark.parametrize("entries", ENTRIES)
    def test_matches_scalar_buffer(self, org, entries):
        for seed in SEEDS:
            for label, pages in streams().items():
                fast = replay_misses(pages, entries, org, seed=seed)
                slow = live_bank(pages, [(entries, org)], seed=seed)
                assert fast == slow[(entries, org)], (label, org.value, entries, seed)

    def test_stream_reuse_across_configs(self):
        """One call replays many configs without cross-talk: each count
        equals that config replayed alone."""
        pages = streams()["phase-shift"]
        configs = [(entries, org) for org in ORGS for entries in (8, 32)]
        together = one_stream(pages, configs, seed=7, name="bank")
        for entries, org in configs:
            assert together[(entries, org)] == replay_misses(pages, entries, org)

    def test_matches_translation_bank(self):
        """Every org × size in one call, duplicates mixed in, vs a live
        TranslationBank."""
        configs = [(entries, org) for entries in ENTRIES for org in ORGS]
        configs += configs[:4]
        for seed in SEEDS:
            for label, pages in streams().items():
                fast = one_stream(pages, configs, seed=seed, name="l1:0")
                assert fast == live_bank(pages, configs, seed=seed, name="l1:0"), label

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            replay_misses([1, 2, 3], 12, Organization.FULLY_ASSOCIATIVE)

    def test_order_independent(self):
        """Config order changes neither the keys' counts nor the RNG
        substream any member draws from."""
        pages = streams()["wide-random"]
        configs = [(entries, org) for entries in (2, 32, 512) for org in ORGS]
        forward = one_stream(pages, configs, seed=3, name="home:1")
        backward = one_stream(pages, configs[::-1], seed=3, name="home:1")
        assert forward == backward

    def test_mixed_orgs_same_size(self):
        """FA, SA and DM of one size in one call keep their own counts
        (and SA below the way count degenerates to FA's geometry, but
        not to FA's RNG substream)."""
        pages = streams()["over-capacity"]
        configs = [(2, org) for org in ORGS] + [(128, org) for org in ORGS]
        assert one_stream(pages, configs, seed=11, name="l2:0") == live_bank(
            pages, configs, seed=11, name="l2:0"
        )


class TestCompiledGate:
    @pytest.mark.parametrize("org", ORGS, ids=lambda o: o.value)
    def test_fallback_matches_scalar(self, org, monkeypatch):
        """With the compiled backend gated off, the scalar path agrees."""
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
        assert get_backend() is None
        pages = streams()["cyclic"]
        assert replay_misses(pages, 8, org) == live_bank(pages, [(8, org)])[(8, org)]

    @needs_compiled
    def test_compiled_and_fallback_agree(self, monkeypatch):
        pages = streams()["wide-random"]
        configs = [(32, org) for org in ORGS]
        compiled = one_stream(pages, configs, seed=7, name="bank")
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
        assert one_stream(pages, configs, seed=7, name="bank") == compiled

    @needs_compiled
    @pytest.mark.parametrize("seed", (0, 1, 0xFFFF_FFFF, 1 << 32, (1 << 64) - 1))
    def test_kernel_seeds_like_random(self, seed):
        """fs_bank_run_set seeded directly with a member seed matches a
        buffer drawing from random.Random(seed), on both sides of 2**32."""
        ffi, lib = get_backend().ffi, get_backend().lib
        pages = streams()["over-capacity"]
        # (entries, org, assoc, sets): fully associative and 4-way.
        geometries = [(64, Organization.FULLY_ASSOCIATIVE, 64, 1),
                      (64, Organization.SET_ASSOCIATIVE, 4, 16)]
        misses = ffi.new("int64_t[]", len(geometries))
        column = ffi.new("int64_t[]", pages)
        status = lib.fs_bank_run_set(
            1, ffi.new("const void *[]", [column]), ffi.new("int64_t[]", [8]),
            ffi.new("int64_t[]", [len(pages)]), len(geometries),
            ffi.new("int64_t[]", [g[3] for g in geometries]),
            ffi.new("int64_t[]", [g[2] for g in geometries]),
            ffi.new("uint64_t[]", [seed] * len(geometries)),
            misses, 1,
        )
        assert status == 0
        for (entries, org, assoc, _), got in zip(geometries, misses):
            buffer = TranslationBuffer(
                entries, org, assoc=assoc if org is Organization.SET_ASSOCIATIVE else None,
                rng=random.Random(seed),
            )
            for page in pages:
                buffer.access(page)
            assert got == buffer.misses, (entries, org.value)


    @needs_compiled
    @pytest.mark.parametrize("org", ORGS, ids=lambda o: o.value)
    def test_single_buffer_kernel_carries_state(self, org):
        """fs_bank_run continues a buffer's generator and hands back
        the scalar buffer's misses, contents and generator state."""
        from repro.core.timing_kernels import rng_state_words

        ffi, lib = get_backend().ffi, get_backend().lib
        pages = streams()["over-capacity"]
        assoc = 4 if org is Organization.SET_ASSOCIATIVE else None
        buffer = TranslationBuffer(32, org, assoc=assoc, rng=random.Random(9))
        state = ffi.new("uint32_t[]", list(rng_state_words(buffer._rng)))
        tags = ffi.new("int64_t[]", buffer.sets * buffer.assoc)
        lens = ffi.new("int32_t[]", buffer.sets)
        column = ffi.new("int64_t[]", pages)
        misses = lib.fs_bank_run(32, buffer.sets, buffer.assoc, state, column, len(pages), tags, lens)
        for page in pages:
            buffer.access(page)
        assert misses == buffer.misses
        assert [
            [tags[s * buffer.assoc + w] for w in range(lens[s])] for s in range(buffer.sets)
        ] == buffer._tags
        assert list(state) == list(rng_state_words(buffer._rng))


class TestBankMissCounts:
    def test_duplicate_configs_computed_once(self):
        pages = streams()["cyclic"]
        configs = [(8, Organization.FULLY_ASSOCIATIVE)] * 3
        counts = one_stream(pages, configs, seed=7, name="bank")
        assert counts == live_bank(pages, configs)
        assert len(counts) == 1

    def test_empty_stream(self):
        counts = one_stream([], [(8, Organization.FULLY_ASSOCIATIVE)], seed=7, name="bank")
        assert counts == {(8, Organization.FULLY_ASSOCIATIVE): 0}

    def test_accepts_array_columns(self, backend):
        """Recorded tap columns arrive as 4- or 8-byte unsigned arrays."""
        pages = streams()["wide-random"]
        configs = [(32, org) for org in ORGS]
        want = live_bank(pages, configs)
        for typecode in ("I", "Q", "q"):
            column = array.array(typecode, pages)
            assert one_stream(column, configs, seed=7, name="bank") == want


@pytest.fixture(scope="module")
def recorded():
    """Every (tap, node) stream of a recorded 2-node radix trace set,
    named as ``replay_study`` names its banks."""
    from repro import MachineParams, make_workload
    from repro.system.taptrace import REQUESTER, capture_tap_traces

    params = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
    traces = capture_tap_traces(
        params, make_workload("radix", intensity=0.2), max_refs_per_node=300
    )
    return traces.seed, {
        f"{tap}:{node}": column
        for (tap, node), column in traces.streams.items()
        if tap != REQUESTER
    }


def with_threads(monkeypatch, threads):
    """Make every replay use ``threads`` threads (None: the default
    budget)."""
    if threads is not None:
        monkeypatch.setattr(replay, "replay_threads", lambda streams: threads)


class TestThreads:
    """The compiled kernel spreads a set's streams over threads; no
    count may depend on how many."""

    CONFIGS = [(entries, org) for entries in (2, 8, 32) for org in ORGS]

    @pytest.mark.parametrize("threads", (1, 2, 8, 64))
    def test_any_thread_count_matches_oracle(self, recorded, monkeypatch, threads):
        """1 thread, 2, more than the cores, and more than the streams
        agree with each other and with a live bank per stream."""
        seed, named = recorded
        assert len(named) == 12
        oracle = {
            name: live_bank(list(column), self.CONFIGS, seed=seed, name=name)
            for name, column in named.items()
        }
        with_threads(monkeypatch, threads)
        assert bank_miss_counts(named, self.CONFIGS, seed) == oracle

    @pytest.mark.parametrize("threads", (None, 1, 3))
    def test_mixed_widths_and_empty_stream(self, backend, monkeypatch, threads):
        """One call mixes 4- and 8-byte columns, a plain list and an
        empty stream; each keeps its own bank's counts."""
        rnd = random.Random(5)
        named = {
            "narrow": array.array("I", streams()["over-capacity"]),
            "wide": array.array("Q", streams()["huge-pages"]),
            "signed": array.array("q", streams()["wide-random"]),
            "empty": array.array("I"),
            "list": [rnd.randrange(300) for _ in range(700)],
        }
        want = {
            name: live_bank(list(pages), self.CONFIGS, seed=3, name=name)
            for name, pages in named.items()
        }
        with_threads(monkeypatch, threads)
        assert bank_miss_counts(named, self.CONFIGS, 3) == want

    @needs_compiled
    @pytest.mark.parametrize("threads", (1, 2, 8))
    def test_page_beyond_int64_raises_for_any_thread_count(self, monkeypatch, threads):
        with_threads(monkeypatch, threads)
        named = {
            "l0:0": array.array("I", range(50)),
            "l0:1": array.array("Q", [1, 2, 1 << 63, 3]),
            "l0:2": array.array("Q", range(1 << 40, (1 << 40) + 50)),
        }
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*63\)"):
            bank_miss_counts(named, self.CONFIGS, 7)

    def test_default_thread_budget(self):
        """The CPUs this process may use, within its cgroup quota, at
        most one per stream, and one inside a pool worker process, which
        the pool already counts."""
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        cpus = min(cpus, replay._cpu_quota() or cpus)
        assert replay_threads(0) == 1
        assert replay_threads(3) == min(cpus, 3)
        assert replay_threads(1000) == cpus
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(replay_threads, (1000,)) == 1

    def test_budget_honours_cpu_quota(self, monkeypatch):
        monkeypatch.setattr(replay, "_cpu_quota", lambda: 1)
        assert replay_threads(1000) == 1


def fake_cgroups(tmp_path, monkeypatch, listing, files):
    """Point the quota reader at a made-up /proc/self/cgroup listing and
    cgroup mount."""
    (tmp_path / "cgroup").write_text(listing)
    for name, text in files.items():
        path = tmp_path / "fs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    monkeypatch.setattr(replay, "_PROC_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(replay, "_CGROUP_ROOT", str(tmp_path / "fs"))


class TestCpuQuota:
    def test_v2_quota_rounds_up(self, tmp_path, monkeypatch):
        fake_cgroups(tmp_path, monkeypatch, "0::/job\n", {"job/cpu.max": "250000 100000\n"})
        assert replay._cpu_quota() == 3

    def test_v2_unlimited(self, tmp_path, monkeypatch):
        fake_cgroups(tmp_path, monkeypatch, "0::/\n", {"cpu.max": "max 100000\n"})
        assert replay._cpu_quota() is None

    def test_tightest_ancestor_wins(self, tmp_path, monkeypatch):
        fake_cgroups(
            tmp_path,
            monkeypatch,
            "0::/outer/inner\n",
            {"outer/cpu.max": "100000 100000\n", "outer/inner/cpu.max": "max 100000\n"},
        )
        assert replay._cpu_quota() == 1

    def test_v1_cfs_quota(self, tmp_path, monkeypatch):
        fake_cgroups(
            tmp_path,
            monkeypatch,
            "4:memory:/job\n1:cpu,cpuacct:/job\n0::/\n",
            {"cpu/job/cpu.cfs_quota_us": "200000\n", "cpu/job/cpu.cfs_period_us": "100000\n"},
        )
        assert replay._cpu_quota() == 2

    def test_v1_unlimited_and_unreadable(self, tmp_path, monkeypatch):
        fake_cgroups(
            tmp_path,
            monkeypatch,
            "1:cpu:/\n",
            {"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"},
        )
        assert replay._cpu_quota() is None
        monkeypatch.setattr(replay, "_PROC_CGROUP", str(tmp_path / "missing"))
        assert replay._cpu_quota() is None
