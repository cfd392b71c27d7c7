"""Throughput benchmark: serial refs/sec, record/replay grid, cache reuse.

Run as a script (it is not a pytest module)::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--smoke] [--out PATH]

Four measurements, written to ``BENCH_throughput.json`` at the repo
root:

* **serial throughput** — references simulated per second for one
  miss sweep (compiled capture + batched replay, and the scalar
  ``StudyAgent`` oracle) and one coupled timing run, compared against
  the recorded seed-commit baseline (``speedup_vs_seed``).  Both kinds
  ride their compiled path when available (the production
  configuration; each row's ``backend`` records which engine ran):
  timing is gated at >= 5x the seed baseline, the sweep at >= 8x.
  The scalar engines must additionally stay no slower than the seed
  (cross-era gate, widened by ``REPRO_BENCH_SEED_TOL``).
* **sweep grid** — the record-once/replay-many showcase: every
  workload swept at several TLB/DLB bank configurations (sizes ×
  organizations).  All bank grids of one workload share a single
  recorded tap trace, so the grid simulates each hierarchy once and
  replays the rest.  (Replay's bit-identity with the scalar oracle is
  gated by ``benchmarks/check_replay_equivalence.py``.)  Each row
  records ``effective_jobs`` — the worker count after the runner clamps to
  ``replay.usable_cpus()`` (a 1-core container runs every level in-process, which
  is why ``--jobs 4`` no longer loses to serial).  The jobs=1 row also
  carries ``replay``: the grid's replays from in-memory traces on one
  thread vs the default thread budget (wall clock), with equal counts
  asserted.
* **timing grid** — the coupled TLB/DLB timing matrix (Table 4 shape).
  Timing runs are never replayed (the translation penalty perturbs the
  interleaving), so this grid bounds what record/replay cannot speed
  up.
* **warm cache** — the sweep grid re-run against the result cache
  populated by the jobs=1 pass; asserts zero new simulations.
* **stream generation** — events/s of every workload's reference
  streams (all nodes, report intensity), drained from the Python
  generator vs written by its C twin (``stream_columns``); the two
  column sets are asserted byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import MachineParams, Scheme, __version__, make_workload
from repro.analysis import run_miss_sweep, run_timing
from repro.core.tlb import Organization
from repro.runner import BatchRunner, JobSpec, ResultCache, TraceStore

#: Bench machine (the report machine, ``repro.analysis.report.default_params``).
PARAMS = MachineParams.scaled_down(factor=8, nodes=8, page_size=512)

SWEEP_SIZES = (8, 32, 128, 512)
ORGS = (Organization.FULLY_ASSOCIATIVE, Organization.DIRECT_MAPPED)
INTENSITY = {"radix": 0.45, "fft": 0.25, "fmm": 1.0, "ocean": 0.2, "raytrace": 3.0, "barnes": 1.0}

#: refs/sec at the pre-optimisation commit: median of 5 paired runs of
#: exactly the serial section below (CPU time, radix @ 0.45) on the
#: reference host.  Recalibrate on other hosts by running this section
#: on a pre-optimisation checkout.
SEED_BASELINE = {"sweep_refs_per_sec": 30926.0, "timing_refs_per_sec": 65973.0}

#: Ceiling on the scalar engine's enabled-tracing slowdown: streaming
#: the full span/event JSONL from the scalar oracle may cost at most
#: this factor over an *untraced scalar* run.  A ratio of two CPU-time
#: rates on the same host, so it is gated on every non-smoke run (no
#: committed-baseline comparison needed); widened by
#: REPRO_BENCH_OVERHEAD_TOL like the disabled gate.  (Traced runs
#: default to the compiled engine; its traced/untraced ratio is
#: recorded as ``compiled_enabled_slowdown``, not gated.)
#: Rebased from 1.5 when the untraced denominator got ~10% faster
#: (the is-None dispatch hoists): the traced path still pays the same
#: absolute per-event cost, so the *ratio* grew without any tracing
#: regression.
ENABLED_SLOWDOWN_LIMIT = 1.75

#: Floor on the fast path's serial timing speedup over the seed
#: baseline (the tentpole target), gated when the compiled backend is
#: available.  Without it the scalar engine must still be no slower
#: than the seed (the hoisted-emitter satellite gate).
FAST_TIMING_SPEEDUP_FLOOR = 5.0

#: Floor on the compiled sweep's serial speedup over the seed baseline
#: (headless capture + one ``fs_bank_run_set`` call per recorded trace
#: set).  Gated like the timing floor: only when the sweep actually
#: ran on the compiled backend (``backend == "compiled+replay"``).
FAST_SWEEP_SPEEDUP_FLOOR = 8.0

#: Bank configurations swept per workload.  Each is a (label, sizes,
#: orgs) grid; all five share one workload's recorded tap trace, which
#: is exactly the redundancy record/replay removes.
FA = Organization.FULLY_ASSOCIATIVE
SA = Organization.SET_ASSOCIATIVE
DM = Organization.DIRECT_MAPPED
BANK_CONFIGS = (
    ("fig8", (8, 32, 128, 512), (FA, DM)),
    ("table2", (8, 32, 128), (FA,)),
    ("small", (8, 16, 32, 64), (FA, SA)),
    ("medium", (16, 64, 256), (FA, DM)),
    ("assoc", (32, 128, 512), (SA, DM)),
)

JOB_LEVELS = (1, 4)


def serial_throughput(smoke: bool) -> dict:
    """Single-thread refs/sec for the two hot paths, best of 3 runs.

    Measured in CPU time (``process_time``) so co-scheduled load does
    not masquerade as a simulator slowdown, and taking the fastest of
    three runs (timeit's convention — slower runs measure interference,
    not the code).  With ``--smoke`` the stream is shorter (and a
    single run), so machine-setup overhead deflates the rates."""
    intensity = 0.2 if smoke else INTENSITY["radix"]
    repeats = 1 if smoke else 3
    best = {}
    for _ in range(repeats):
        workload = make_workload("radix", intensity=intensity)
        started = time.process_time()
        sweep = run_miss_sweep(PARAMS, workload, sizes=SWEEP_SIZES, orgs=ORGS)
        sweep_elapsed = time.process_time() - started

        workload = make_workload("radix", intensity=intensity)
        started = time.process_time()
        sweep_scalar = run_miss_sweep(
            PARAMS, workload, sizes=SWEEP_SIZES, orgs=ORGS, fast=False
        )
        sweep_scalar_elapsed = time.process_time() - started

        workload = make_workload("radix", intensity=intensity)
        started = time.process_time()
        timing = run_timing(PARAMS, Scheme.V_COMA, workload, 8)
        timing_elapsed = time.process_time() - started

        for kind, result, elapsed, baseline in (
            ("sweep", sweep, sweep_elapsed, SEED_BASELINE["sweep_refs_per_sec"]),
            ("sweep_scalar", sweep_scalar, sweep_scalar_elapsed,
             SEED_BASELINE["sweep_refs_per_sec"]),
            ("timing", timing, timing_elapsed, SEED_BASELINE["timing_refs_per_sec"]),
        ):
            rate = result.total_references / elapsed
            if kind not in best or rate > best[kind]["refs_per_sec"]:
                best[kind] = {
                    "references": result.total_references,
                    "seconds": round(elapsed, 3),
                    "refs_per_sec": round(rate, 1),
                    "speedup_vs_seed": round(rate / baseline, 3),
                    "backend": getattr(result, "backend", None),
                }
    best["runs"] = repeats
    best["seed_baseline"] = SEED_BASELINE
    return best


def tracing_overhead(smoke: bool) -> dict:
    """Tracing must be free when off and cheap when on.

    Four coupled timing runs per repeat, interleaved so host noise
    hits every leg equally and best-of-N (CPU time) discards the rest:

    * **disabled** — no tracer attached, the production configuration.
      On the compiled fast path this is the rate the committed-baseline
      gate in ``main`` protects.
    * **scalar_untraced** — the scalar reference engine, untraced.  The
      denominator for the scalar enabled gate and the hoisted-emitter
      satellite gate's numerator: instrumentation may not tax untraced
      scalar runs.
    * **enabled** — streaming the full span/event JSONL to disk on the
      default engine (compiled when available: the C engine writes the
      packed trace records itself).
    * **scalar_enabled** — the same traced run forced onto the scalar
      oracle (``fast=False``).

    ``scalar_enabled_slowdown = scalar_untraced / scalar_enabled`` is
    gated at ``ENABLED_SLOWDOWN_LIMIT``; ``compiled_enabled_slowdown =
    disabled / enabled`` is recorded.  All four runs must agree on
    ``total_time`` exactly, and both traced runs on the trace bytes
    (tracing and engine choice may not perturb the simulation).
    """
    from repro.obs import Tracer

    intensity = 0.2 if smoke else INTENSITY["radix"]
    repeats = 1 if smoke else 5
    rates = {"disabled": 0.0, "scalar_untraced": 0.0, "enabled": 0.0, "scalar_enabled": 0.0}
    backend = enabled_backend = None
    round_ratios = []
    for _ in range(repeats):
        workload = make_workload("radix", intensity=intensity)
        started = time.process_time()
        result = run_timing(PARAMS, Scheme.V_COMA, workload, 8)
        elapsed = time.process_time() - started
        rates["disabled"] = max(rates["disabled"], result.total_references / elapsed)
        backend = result.backend

        workload = make_workload("radix", intensity=intensity)
        started = time.process_time()
        scalar = run_timing(PARAMS, Scheme.V_COMA, workload, 8, fast=False)
        elapsed = time.process_time() - started
        scalar_rate = scalar.total_references / elapsed
        rates["scalar_untraced"] = max(rates["scalar_untraced"], scalar_rate)

        traces = {}
        with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
            for leg, fast in (("enabled", True), ("scalar_enabled", False)):
                workload = make_workload("radix", intensity=intensity)
                path = os.path.join(tmp, f"{leg}.jsonl")
                started = time.process_time()
                with Tracer(path) as tracer:
                    traced = run_timing(
                        PARAMS, Scheme.V_COMA, workload, 8, tracer=tracer, fast=fast
                    )
                elapsed = time.process_time() - started
                rate = traced.total_references / elapsed
                rates[leg] = max(rates[leg], rate)
                if fast:
                    enabled_backend = traced.backend
                else:
                    round_ratios.append(scalar_rate / rate)
                assert traced.total_time == result.total_time == scalar.total_time, (
                    "tracing or engine choice perturbed the simulation"
                )
                with open(path, "rb") as handle:
                    traces[leg] = handle.read()
        assert traces["enabled"] == traces["scalar_enabled"], (
            "the compiled and scalar engines wrote different traces"
        )
    # Host noise on a shared box only ever *adds* CPU time, so the true
    # slowdown is approached from above by both estimators: the ratio of
    # a temporally-adjacent scalar/enabled pair (cancels slow drift) and
    # the ratio of per-leg bests across rounds (cancels independent
    # spikes).  Take whichever got closer.
    slowdown = min(min(round_ratios), rates["scalar_untraced"] / rates["scalar_enabled"])
    return {
        "disabled_refs_per_sec": round(rates["disabled"], 1),
        "disabled_backend": backend,
        "scalar_untraced_refs_per_sec": round(rates["scalar_untraced"], 1),
        "enabled_refs_per_sec": round(rates["enabled"], 1),
        "enabled_backend": enabled_backend,
        "compiled_enabled_slowdown": round(rates["disabled"] / rates["enabled"], 3),
        "scalar_enabled_refs_per_sec": round(rates["scalar_enabled"], 1),
        "scalar_enabled_slowdown": round(slowdown, 3),
        "scalar_speedup_vs_seed": round(
            rates["scalar_untraced"] / SEED_BASELINE["timing_refs_per_sec"], 3
        ),
        "runs": repeats,
    }


def stream_generation(smoke: bool) -> dict:
    """Events/s per workload: Python generator vs its C twin.

    Every node's stream of the bench machine at the report intensity,
    best of 3 (CPU time); the C rate is None without a compiled
    backend.  Both sides must produce the same columns."""
    from repro.common.address import AddressLayout
    from repro.core.timing_kernels import get_backend, materialize_stream, stream_columns
    from repro.system.machine import build_address_space

    repeats = 1 if smoke else 3
    compiled = get_backend() is not None
    layout = AddressLayout.from_params(PARAMS)
    rows = {}
    for name, intensity in INTENSITY.items():
        workload = make_workload(name, intensity=intensity)
        _, ctx = build_address_space(PARAMS, layout, workload)
        nodes = range(PARAMS.nodes)
        best = {"python": float("inf"), "c": float("inf")}
        for _ in range(repeats):
            started = time.process_time()
            drained = [materialize_stream(workload.node_stream(n, ctx)) for n in nodes]
            best["python"] = min(best["python"], time.process_time() - started)
            if compiled:
                started = time.process_time()
                written = [stream_columns(workload, n, ctx) for n in nodes]
                best["c"] = min(best["c"], time.process_time() - started)
                assert written == drained, f"{name}: C stream twin diverged"
        events = sum(len(ops) for ops, _ in drained)
        row = {
            "events": events,
            "python_events_per_sec": round(events / best["python"], 1),
            "c_events_per_sec": round(events / best["c"], 1) if compiled else None,
        }
        if compiled:
            row["speedup"] = round(best["python"] / best["c"], 2)
        rows[name] = row
    return {"nodes": PARAMS.nodes, "seed": PARAMS.seed, "runs": repeats, "workloads": rows}


def sweep_grid_specs(workloads, configs=BANK_CONFIGS) -> list:
    """One sweep job per (workload, bank configuration)."""
    return [
        JobSpec.sweep(
            PARAMS, name, sizes=sizes, orgs=orgs,
            overrides={"intensity": INTENSITY[name]},
            label=f"sweep:{name}:{label}",
        )
        for name in workloads
        for label, sizes, orgs in configs
    ]


def timing_grid_specs(workloads) -> list:
    """The coupled TLB/DLB timing matrix (Table 4 shape)."""
    specs = []
    for entries in (8, 16):
        for scheme in (Scheme.L0_TLB, Scheme.V_COMA):
            specs.extend(
                JobSpec.timing(
                    PARAMS, scheme, name, entries,
                    overrides={"intensity": INTENSITY[name]},
                    label=f"{scheme.value}/{entries}:{name}",
                )
                for name in workloads
            )
    return specs


def replay_threads_row(workloads, configs, smoke: bool) -> dict:
    """Every replay of the sweep grid, from traces captured once in
    memory: one thread vs the default thread budget
    (``replay_threads``, patched to 1 for the serial leg), best of 3 in
    wall clock — CPU time would
    count both threads' work.  The two legs alternate which runs first
    and must produce the same studies."""
    from repro.core.replay import replay_threads
    from repro.system.taptrace import capture_tap_traces, replay_study

    traces = [
        capture_tap_traces(PARAMS, make_workload(name, intensity=INTENSITY[name]))
        for name in workloads
    ]
    streams = sum(1 for column in traces[0].streams.values() if len(column))
    repeats = 1 if smoke else 3
    best = {1: float("inf"), None: float("inf")}
    studies = {}
    for repeat in range(repeats):
        for threads in ((1, None) if repeat % 2 == 0 else (None, 1)):
            budget = replay_threads if threads is None else (lambda streams: 1)
            with mock.patch("repro.core.replay.replay_threads", budget):
                started = time.perf_counter()
                studies[threads] = [
                    replay_study(trace, [(sizes, orgs)])[0].to_dict()
                    for trace in traces
                    for _, sizes, orgs in configs
                ]
                best[threads] = min(best[threads], time.perf_counter() - started)
    assert studies[1] == studies[None], "replay counts depend on the thread count"
    return {
        "replays": len(studies[1]),
        "threads": replay_threads(streams),
        "serial_seconds": round(best[1], 3),
        "threaded_seconds": round(best[None], 3),
        "speedup": round(best[1] / best[None], 3),
        "runs": repeats,
    }


def run_grid(specs, jobs, cache=None, trace_store=None):
    runner = BatchRunner(jobs=jobs, cache=cache, trace_store=trace_store)
    started = time.perf_counter()
    results = runner.run(specs)
    elapsed = time.perf_counter() - started
    row = {
        "jobs": jobs,
        "effective_jobs": runner.effective_jobs,
        "grid_jobs": len(specs),
        "seconds": round(elapsed, 3),
        "simulations_run": runner.simulations_run,
        "cache_hits": runner.cache_hits,
        "backends": dict(runner.stats.backends),
    }
    return row, results


def engine_mix(row) -> str:
    """Human-readable engine mix of one grid row ("" when nothing ran)."""
    mix = row.get("backends") or {}
    return ", ".join(f"{count} {name}" for name, count in sorted(mix.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small grid (2 workloads, 2 bank configs) for CI smoke runs")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_throughput.json at the repo root)")
    args = parser.parse_args(argv)

    out = args.out or os.path.join(os.path.dirname(__file__), "..", "BENCH_throughput.json")
    workloads = ("radix", "fft") if args.smoke else tuple(INTENSITY)
    configs = BANK_CONFIGS[:2] if args.smoke else BANK_CONFIGS

    # Measure tracing overhead FIRST, on a pristine heap: the sweep
    # stage leaves the allocator fragmented enough to tax the
    # allocation-heavy enabled leg ~10-40% more than the scalar leg,
    # which inflates the slowdown ratio well past what a standalone
    # process measures.
    print(f"tracing overhead (radix timing){' [smoke]' if args.smoke else ''} ...",
          flush=True)
    tracing = tracing_overhead(args.smoke)
    print(f"  disabled: {tracing['disabled_refs_per_sec']:>10.1f} refs/s "
          f"({tracing['disabled_backend']})")
    print(f"  scalar  : {tracing['scalar_untraced_refs_per_sec']:>10.1f} refs/s "
          f"untraced ({tracing['scalar_speedup_vs_seed']:.2f}x vs seed)")
    print(f"  enabled : {tracing['enabled_refs_per_sec']:>10.1f} refs/s "
          f"({tracing['enabled_backend']}, {tracing['compiled_enabled_slowdown']:.2f}x "
          f"slowdown vs disabled)")
    print(f"  scalar enabled: {tracing['scalar_enabled_refs_per_sec']:>10.1f} refs/s "
          f"({tracing['scalar_enabled_slowdown']:.2f}x slowdown vs scalar untraced)")

    print("serial throughput (radix) ...", flush=True)
    serial = serial_throughput(args.smoke)
    for kind in ("sweep", "sweep_scalar", "timing"):
        row = serial[kind]
        engine = f", {row['backend']}" if row.get("backend") else ""
        print(f"  {kind:>12}: {row['refs_per_sec']:>10.1f} refs/s "
              f"({row['speedup_vs_seed']:.2f}x vs seed{engine})")
    if not args.smoke:
        tolerance = float(os.environ.get("REPRO_BENCH_OVERHEAD_TOL", "0.02"))
        # Gates against SEED_BASELINE compare across benchmark *eras*:
        # the seed constants were captured under different host load,
        # and re-measuring the unmodified seed code on this container
        # lands anywhere in 0.82-0.98x of its own recorded rate.  These
        # gates therefore get a wide drift allowance and only catch
        # gross regressions; the tight 2% tolerance is reserved for
        # same-era comparisons (the committed-baseline gate below).
        seed_tol = float(os.environ.get("REPRO_BENCH_SEED_TOL", "0.25"))
        if serial["timing"].get("backend") == "compiled":
            floor = FAST_TIMING_SPEEDUP_FLOOR * (1 - tolerance)
            print(f"  fast-path gate: {serial['timing']['speedup_vs_seed']:.2f}x "
                  f">= {floor:.2f}x vs seed")
            assert serial["timing"]["speedup_vs_seed"] >= floor, (
                f"compiled fast path only {serial['timing']['speedup_vs_seed']:.2f}x "
                f"over the seed baseline (target {FAST_TIMING_SPEEDUP_FLOOR}x); "
                f"set REPRO_BENCH_OVERHEAD_TOL to widen the gate"
            )
        if serial["sweep"].get("backend") == "compiled+replay":
            # Cross-era like the scalar gates below: the 8x target is
            # against the recorded seed constant, and the sweep engine
            # (unlike the 10x+ timing path) does not have enough
            # headroom over its floor to absorb host-load drift with
            # the tight same-era tolerance.
            floor = FAST_SWEEP_SPEEDUP_FLOOR * (1 - seed_tol)
            print(f"  fast-sweep gate: {serial['sweep']['speedup_vs_seed']:.2f}x "
                  f">= {floor:.2f}x vs seed")
            assert serial["sweep"]["speedup_vs_seed"] >= floor, (
                f"compiled sweep engine only {serial['sweep']['speedup_vs_seed']:.2f}x "
                f"over the seed baseline (target {FAST_SWEEP_SPEEDUP_FLOOR}x); "
                f"set REPRO_BENCH_SEED_TOL to widen the cross-era gate"
            )
        sweep_scalar_floor = 1.0 - seed_tol
        print(f"  scalar-sweep gate: "
              f"{serial['sweep_scalar']['speedup_vs_seed']:.2f}x "
              f">= {sweep_scalar_floor:.2f}x vs seed")
        assert serial["sweep_scalar"]["speedup_vs_seed"] >= sweep_scalar_floor, (
            f"scalar sweep engine regressed to "
            f"{serial['sweep_scalar']['speedup_vs_seed']:.2f}x of the seed "
            f"baseline (set REPRO_BENCH_SEED_TOL to widen the cross-era gate)"
        )
        scalar_floor = 1.0 - seed_tol
        print(f"  scalar-engine gate: {tracing['scalar_speedup_vs_seed']:.2f}x "
              f">= {scalar_floor:.2f}x vs seed")
        assert tracing["scalar_speedup_vs_seed"] >= scalar_floor, (
            f"untraced scalar timing regressed to "
            f"{tracing['scalar_speedup_vs_seed']:.2f}x of the seed baseline; "
            f"instrumentation may not tax untraced runs "
            f"(set REPRO_BENCH_SEED_TOL to widen the cross-era gate)"
        )
        limit = ENABLED_SLOWDOWN_LIMIT * (1 + tolerance)
        print(f"  scalar enabled-mode gate: {tracing['scalar_enabled_slowdown']:.2f}x "
              f"<= {limit:.2f}x")
        assert tracing["scalar_enabled_slowdown"] <= limit, (
            f"scalar enabled-tracing slowdown {tracing['scalar_enabled_slowdown']:.2f}x "
            f"exceeds the {ENABLED_SLOWDOWN_LIMIT}x budget; "
            f"set REPRO_BENCH_OVERHEAD_TOL to widen the gate"
        )
    if not args.smoke and os.path.exists(out):
        # Gate: with no tracer attached, the instrumented hot paths must
        # stay within tolerance of the committed baseline's rate for the
        # same row (tracing.disabled_refs_per_sec).  Only comparable when
        # both runs used the same engine — a host without the compiled
        # backend measures the scalar rate, which must not be gated
        # against a committed fast-path baseline.
        with open(out) as handle:
            committed = json.load(handle)
        base = committed.get("tracing", {}).get("disabled_refs_per_sec")
        same_backend = (
            committed.get("tracing", {}).get("disabled_backend") == tracing["disabled_backend"]
        )
        if base and same_backend and not committed.get("smoke"):
            tolerance = float(os.environ.get("REPRO_BENCH_OVERHEAD_TOL", "0.02"))
            ratio = tracing["disabled_refs_per_sec"] / base
            print(f"  vs committed baseline: {ratio:.3f}x "
                  f"(gate: >= {1 - tolerance:.2f}x)")
            assert ratio >= 1 - tolerance, (
                f"tracing-disabled throughput regressed "
                f"{(1 - ratio) * 100:.1f}% vs the committed baseline "
                f"({tracing['disabled_refs_per_sec']:.0f} vs {base:.0f} refs/s); "
                f"set REPRO_BENCH_OVERHEAD_TOL to widen the gate"
            )

    print("stream generation (events/s, Python generator vs C twin) ...", flush=True)
    streams = stream_generation(args.smoke)
    for name, row in streams["workloads"].items():
        c_rate = row["c_events_per_sec"]
        twin = f"{c_rate:>12.1f} C ({row['speedup']:.1f}x)" if c_rate else "no C twin"
        print(f"  {name:>8}: {row['python_events_per_sec']:>10.1f} Python, {twin}")

    specs = sweep_grid_specs(workloads, configs)
    print(f"sweep grid: {len(specs)} jobs "
          f"({len(workloads)} workloads x {len(configs)} bank configs)", flush=True)
    grid = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        for jobs in JOB_LEVELS:
            # Every level records+replays cold except for the shared
            # trace store; the jobs=1 pass also writes the result cache
            # the warm measurement below reads back.
            with tempfile.TemporaryDirectory(prefix="repro-bench-traces-") as trace_tmp:
                row, _ = run_grid(
                    specs, jobs,
                    cache=ResultCache(tmp) if jobs == 1 else None,
                    trace_store=TraceStore(trace_tmp),
                )
            if jobs == 1:
                serial_seconds = row["seconds"]
                row["replay"] = replay_threads_row(workloads, configs, args.smoke)
            row["speedup_vs_serial"] = round(serial_seconds / row["seconds"], 3)
            grid.append(row)
            mix = engine_mix(row)
            print(f"  --jobs {jobs} (effective {row['effective_jobs']}): "
                  f"{row['seconds']:.1f} s "
                  f"({row['speedup_vs_serial']:.2f}x vs serial)"
                  f"{f' [{mix}]' if mix else ''}", flush=True)
            if "replay" in row:
                replay = row["replay"]
                print(f"    replay ({replay['replays']} studies): "
                      f"{replay['serial_seconds']:.3f} s on 1 thread, "
                      f"{replay['threaded_seconds']:.3f} s on {replay['threads']} "
                      f"({replay['speedup']:.2f}x)", flush=True)
            if row["effective_jobs"] < jobs:
                print(f"  WARNING: --jobs {jobs} clamped to "
                      f"{row['effective_jobs']} worker"
                      f"{'s' if row['effective_jobs'] != 1 else ''} "
                      f"(cpu_count={os.cpu_count()}); speedup_vs_serial "
                      f"measures the clamped pool", flush=True)

        timing_specs = timing_grid_specs(workloads)
        print(f"timing grid: {len(timing_specs)} coupled jobs", flush=True)
        timing_row, _ = run_grid(timing_specs, jobs=1)
        print(f"  --jobs 1: {timing_row['seconds']:.1f} s", flush=True)

        warm, _ = run_grid(specs, jobs=1, cache=ResultCache(tmp))
        assert warm["simulations_run"] == 0, "warm cache still simulated"
        print(f"  warm cache: {warm['seconds']:.2f} s, "
              f"{warm['simulations_run']} simulations, {warm['cache_hits']} hits")

    from repro.core.timing_kernels import backend_status

    payload = {
        "version": __version__,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "timing_backend": backend_status(),
        "params": {"nodes": PARAMS.nodes, "page_size": PARAMS.page_size},
        "serial": serial,
        "tracing": tracing,
        "grid": grid,
        "timing_grid": timing_row,
        "warm_cache": warm,
        "stream_generation": streams,
    }
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.abspath(out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
