"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro describe  [--nodes 8 --factor 8 --page-size 512]
    python -m repro sweep     radix [--sizes 8,32,128,512] [--dm]
    python -m repro timing    ocean --scheme V-COMA --entries 8
    python -m repro paper     list | run [ID...] | check [ID...]
    python -m repro trace-profile t.jsonl [--metrics m.json]
    python -m repro trace-validate t.jsonl
    python -m repro fuzz      [--cases 200] [--replay-only]
    python -m repro doctor    [--json]
    python -m repro status    [RUN_ID]
    python -m repro workloads

``paper`` drives the registry of the paper's experiments
(``repro.analysis.report.EXPERIMENTS``): ``list`` names every
experiment, ``run`` renders the chosen ones (all by default) exactly as
the report does, and ``check`` evaluates their shape claims, exiting 1
when one fails.  Experiment ids may come before or after the options.

The trace-analytics commands (``docs/observability.md``) consume
recorded artifacts instead of running simulations: ``trace-profile``
renders a span-tree profile and the Table-4-shaped cost attribution
from a JSONL trace (``--metrics`` reconciles it exactly against the
run's metrics export, exiting non-zero on any mismatch),
``trace-validate`` checks a trace against the frozen schema, and
``status`` renders live per-job progress of a batch run from its
manifest heartbeats.

``timing`` accepts ``--trace-out FILE`` to record the structured
protocol-event trace (JSONL; see ``docs/observability.md``) and
``--metrics-out FILE`` to export the run's metrics.

Simulation commands accept the machine options (``--nodes``,
``--factor``, ``--page-size``, ``--seed``); the single-run commands
(``sweep``, ``timing``) also take ``--refs`` to bound references per
node, while ``paper`` always runs complete streams.  All three also
accept ``--jobs N`` to shard independent simulations
across worker processes (clamped to the CPUs the process may use),
``--cache-dir`` to relocate the persistent result cache, ``--no-cache``
to bypass it, and ``--cache-max-mb`` to cap it with LRU eviction.  Miss sweeps run
through the record-once/replay-many pipeline and timing runs through
the compiled engine; ``REPRO_NO_COMPILED=1`` puts every run on the
scalar reference engines instead (see ``docs/performance.md``; the
``timing`` output's ``engine`` line reports which one ran).

A grid fails on its first failed job; ``--keep-going`` records
failures and finishes the grid instead.  A Ctrl-C'd run prints a
``--resume RUN_ID`` hint that re-executes only the jobs missing from
its manifest (``docs/robustness.md``).  Output is plain text,
identical to the benchmark harness's.  A malformed option value exits
2 with a one-line ``repro: error:`` message.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis import render_dm_vs_fa, render_miss_curves, run_timing
from repro.common.errors import ConfigurationError
from repro.common.params import MachineParams
from repro.core.schemes import Scheme
from repro.core.tlb import Organization
from repro.workloads import PAPER_ORDER, WORKLOADS, make_workload


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser that takes its positionals anywhere among
    its options.  Plain argparse matches every positional of a chunk at
    once, so ``paper check --seed 7 fig8`` would bind ``check`` and an
    empty id list before ``--seed`` and reject ``fig8``."""

    _intermixing = False

    def parse_known_args(self, args=None, namespace=None):
        if self._intermixing:  # the two passes of the intermixed parse
            return super().parse_known_args(args, namespace)
        self._intermixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixing = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Options for Dynamic Address Translation in COMAs'",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def add_machine_options(p):
        p.add_argument("--nodes", type=int, default=8, help="processor count (power of two)")
        p.add_argument("--factor", type=int, default=8, help="scale-down factor vs the paper machine")
        p.add_argument("--page-size", type=int, default=512, help="page size in bytes")
        p.add_argument("--seed", type=int, default=1998)
        p.add_argument("--paper-machine", action="store_true",
                       help="use the exact Section 5.1 configuration (slow)")

    def add_refs_option(p):
        p.add_argument("--refs", type=int, default=None, help="max references per node")

    def add_runner_options(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for independent simulations "
                            "(clamped to the CPUs this process may use)")
        p.add_argument("--cache-dir", default=None,
                       help="persistent result-cache directory "
                            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
        p.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the persistent result cache")
        p.add_argument("--cache-max-mb", type=float, default=None,
                       help="LRU-evict result-cache entries beyond this size "
                            "(default: $REPRO_CACHE_MAX_MB, else unlimited)")
        p.add_argument("--keep-going", action="store_true",
                       help="record failed jobs and finish the grid instead "
                            "of failing fast on the first error")
        p.add_argument("--resume", default=None, metavar="RUN_ID",
                       help="resume an interrupted run from its manifest, "
                            "re-executing only the jobs missing from it "
                            "(run ids are printed on interrupt)")

    p = sub.add_parser("describe", help="print the machine configuration")
    add_machine_options(p)

    p = sub.add_parser("workloads", help="list the available workloads")

    p = sub.add_parser("sweep", help="Figure 8/9 miss curves for one workload")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--sizes", default="8,32,128,512")
    p.add_argument("--dm", action="store_true", help="also show direct-mapped curves (Figure 9)")
    p.add_argument("--intensity", type=float, default=1.0)
    add_machine_options(p)
    add_refs_option(p)
    add_runner_options(p)

    p = sub.add_parser("timing", help="coupled timing run (Table 4 cell)")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--scheme", default="V-COMA",
                   choices=[s.value for s in Scheme])
    p.add_argument("--entries", type=int, default=8)
    p.add_argument("--dm", action="store_true", help="direct-mapped TLB/DLB")
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record the protocol-event trace as JSONL "
                        "(forces an in-process run; see docs/observability.md)")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the run's metrics (.prom/.txt = OpenMetrics "
                        "text, anything else = JSON)")
    add_machine_options(p)
    add_refs_option(p)
    add_runner_options(p)

    p = sub.add_parser(
        "paper",
        help="list, render or check the paper's registered experiments",
    )
    p.add_argument("action", choices=["list", "run", "check"])
    p.add_argument("ids", nargs="*", metavar="ID",
                   help="experiment ids (default: every experiment; "
                        "see `paper list`)")
    add_machine_options(p)
    add_runner_options(p)

    p = sub.add_parser(
        "trace-profile",
        help="span-tree profile + cost attribution of a recorded trace",
    )
    p.add_argument("trace_file")
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="JSON metrics export of the same run; the "
                        "attribution is reconciled exactly against it "
                        "(non-zero exit on any mismatch)")
    p.add_argument("--json", action="store_true",
                   help="emit the profile/attribution as JSON")
    p.add_argument("--no-tree", action="store_true",
                   help="skip the span tree (attribution only)")

    p = sub.add_parser(
        "trace-validate",
        help="check a recorded trace against the frozen schema",
    )
    p.add_argument("trace_file")

    p = sub.add_parser(
        "status",
        help="live per-job status of a batch run from its manifest",
    )
    p.add_argument("run_id", nargs="?", default=None,
                   help="run id (omit to list known runs)")
    p.add_argument("--cache-dir", default=None,
                   help="cache root holding the run manifests")

    p = sub.add_parser(
        "doctor",
        help="probe every engine tier and print the degradation ladder",
    )
    p.add_argument("--json", action="store_true",
                   help="machine-readable tier report instead of the ladder")

    p = sub.add_parser(
        "fuzz",
        help="differential-fuzz the compiled engine against the scalar oracle",
    )
    p.add_argument("--cases", type=int, default=200,
                   help="generated cases to execute (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="hypothesis seed (fixed seed = identical run)")
    p.add_argument("--corpus", default=None,
                   help="regression-corpus directory (default: the "
                        "committed corpus inside the package)")
    p.add_argument("--skip-replay", action="store_true",
                   help="skip replaying the regression corpus first")
    p.add_argument("--replay-only", action="store_true",
                   help="only replay the corpus; generate nothing")

    return parser


def machine_params(args) -> MachineParams:
    if getattr(args, "paper_machine", False):
        return MachineParams.paper_baseline().replace(seed=args.seed)
    return MachineParams.scaled_down(
        factor=args.factor, nodes=args.nodes, page_size=args.page_size
    ).replace(seed=args.seed)


def _positive(flag: str, value: float) -> float:
    """``value`` when it is a finite positive number; a usage error
    naming ``flag`` otherwise."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{flag} must be a positive number, got {value:g}")
    return value


def _sizes(text: str) -> Tuple[int, ...]:
    """``--sizes``: comma-separated TLB/DLB entry counts."""
    try:
        return tuple(int(size) for size in text.split(","))
    except ValueError:
        raise ConfigurationError(
            f"--sizes takes comma-separated integers, got {text!r}"
        ) from None


def batch_runner(args, progress=None):
    """A :class:`~repro.runner.batch.BatchRunner` from CLI options.

    The persistent cache is on by default; ``--no-cache`` bypasses it
    (the tap-trace store and run manifests included) and ``--cache-dir``
    relocates all three.  ``--cache-max-mb`` caps the result cache with
    LRU eviction, ``--keep-going`` records failed jobs instead of
    failing the grid, and ``--resume`` restores an interrupted run from
    its manifest (see ``docs/robustness.md``).
    """
    from repro.runner import BatchRunner, ResultCache, TraceStore, default_manifest_dir

    max_bytes = getattr(args, "cache_max_mb", None)
    if max_bytes is not None:
        max_bytes = int(_positive("--cache-max-mb", max_bytes) * 1024 * 1024)
    cache_dir = getattr(args, "cache_dir", None)
    no_cache = getattr(args, "no_cache", False)
    cache = None if no_cache else ResultCache(cache_dir, max_bytes=max_bytes)
    trace_store = None if no_cache else TraceStore(
        Path(cache_dir) / "traces" if cache_dir else None
    )
    manifest_dir = None if no_cache else (
        Path(cache_dir) / "runs" if cache_dir else default_manifest_dir()
    )
    resume = getattr(args, "resume", None)
    if resume is not None and manifest_dir is None:
        raise SystemExit("--resume needs run manifests; drop --no-cache")
    return BatchRunner(
        jobs=getattr(args, "jobs", 1),
        cache=cache,
        progress=progress,
        trace_store=trace_store,
        keep_going=getattr(args, "keep_going", False),
        manifest_dir=manifest_dir,
        resume=resume,
    )


def _print_grid_stats(runner) -> None:
    """Surface grid events (failures, degradations, store repairs, a
    clamped ``--jobs``) after a grid; silent when nothing eventful
    happened."""
    if runner is not None and runner.stats.eventful:
        sys.stderr.write(runner.stats.render() + "\n")


def _print_progress(done: int, total: int, job) -> None:
    if not job.ok:
        sys.stderr.write(
            f"[{done}/{total}] {job.spec.describe()} FAILED ({job.error_type})\n"
        )
        return
    if job.from_cache:
        origin = "cache"
    elif job.from_manifest:
        origin = "manifest"
    else:
        origin = f"{job.elapsed:.1f}s"
    sys.stderr.write(f"[{done}/{total}] {job.spec.describe()} ({origin})\n")


def _cmd_paper(args, out) -> int:
    """List, render or check the registered paper experiments."""
    from repro.analysis import report

    known = {entry.id: entry for entry in report.EXPERIMENTS}
    ids = list(dict.fromkeys(args.ids))  # each experiment once, in order
    unknown = [name for name in ids if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s) {', '.join(unknown)}; see `repro paper list`"
        )
    chosen = [known[name] for name in ids] or list(known.values())

    if args.action == "list":
        for entry in chosen:
            where = "report" if entry.report else "extra"
            out.write(
                f"{entry.id:<22} {where:<6} {len(entry.claims)} claims  {entry.title}\n"
            )
        return 0

    runner = batch_runner(args, progress=_print_progress)
    setup, results, outcomes = report.run_cells(
        chosen, report.Setup(machine_params(args)), runner
    )
    _print_grid_stats(runner)
    failed = not all(job.ok for job in outcomes)
    if failed and args.action == "check":
        sys.stderr.write("paper check: failed jobs leave claims unchecked\n")
        return 1
    data = {entry.id: entry.collect(setup, results) for entry in chosen}

    if args.action == "run":
        sections = [entry.section(setup, data[entry.id]) for entry in chosen]
        out.write("\n\n".join(sections) + "\n")
        return 1 if failed else 0

    verdicts = [
        (entry, claim, holds, detail)
        for entry in chosen
        for claim, holds, detail in entry.check(data[entry.id])
    ]
    for entry, claim, holds, detail in verdicts:
        out.write(f"[{'PASS' if holds else 'FAIL'}] {entry.id}/{claim.name}: {claim.text}\n")
        if detail:
            out.write(f"       {detail}\n")
    good = sum(1 for *_, holds, _ in verdicts if holds)
    out.write(
        f"{good}/{len(verdicts)} claims hold on {setup.params.nodes} nodes, "
        f"seed {setup.params.seed}\n"
    )
    return 0 if good == len(verdicts) else 1


def _cmd_trace_profile(args, out) -> int:
    """Span-tree profile and Table-4-shaped cost attribution of a trace."""
    import json

    from repro.obs import (
        MetricsRegistry,
        ReconciliationError,
        attribute_costs,
        profile_trace,
        read_trace,
    )

    records = read_trace(args.trace_file)
    profile = profile_trace(records)
    attribution = attribute_costs(records)

    checks = None
    status = 0
    if args.metrics:
        with open(args.metrics, "r", encoding="utf-8") as handle:
            registry = MetricsRegistry.from_dict(json.load(handle))
        try:
            checks = attribution.reconcile(registry, strict=True)
        except ReconciliationError as exc:
            checks = attribution.reconcile(registry, strict=False)
            sys.stderr.write(f"reconciliation FAILED: {exc}\n")
            status = 1

    if args.json:
        payload = {
            "profile": profile.to_dict(),
            "attribution": attribution.to_dict(),
        }
        if checks is not None:
            payload["reconciliation"] = checks
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return status

    if not args.no_tree:
        out.write(profile.render() + "\n\n")
    out.write(attribution.render() + "\n")
    if checks is not None:
        passed = sum(1 for c in checks if c["ok"])
        out.write(f"\nreconciliation vs {args.metrics}: {passed}/{len(checks)} exact\n")
        for c in checks:
            mark = "ok  " if c["ok"] else "FAIL"
            out.write(
                f"  [{mark}] {c['check']}: "
                f"trace={c['trace']} registry={c['registry']}\n"
            )
    return status


def _cmd_trace_validate(args, out) -> int:
    """Schema-check a recorded trace; non-zero exit on violations."""
    from repro.obs import TraceSchemaError, read_trace, validate_trace

    records = read_trace(args.trace_file)
    try:
        stats = validate_trace(records)
    except TraceSchemaError as exc:
        sys.stderr.write(f"{args.trace_file}: INVALID: {exc}\n")
        return 1
    summary = ", ".join(f"{name}={count}" for name, count in sorted(stats.items()))
    out.write(f"{args.trace_file}: ok ({summary})\n")
    return 0


def _cmd_status(args, out) -> int:
    """Render one batch run's live status from its manifest heartbeats."""
    from repro.runner import list_runs, read_status

    root = Path(args.cache_dir) / "runs" if args.cache_dir else None

    if not args.run_id:
        runs = list_runs(root)
        if not runs:
            out.write("no runs recorded\n")
            return 0
        for run_id in runs:
            view = read_status(run_id, root)
            counts = view["counts"]
            line = (
                f"{run_id}  {counts['ok']} ok / {counts['failed']} failed / "
                f"{counts['running']} running"
            )
            if view["pending"]:
                line += f" / {view['pending']} pending"
            out.write(line + "\n")
        return 0

    try:
        view = read_status(args.run_id, root)
    except FileNotFoundError:
        raise SystemExit(f"unknown run id {args.run_id!r}")

    counts = view["counts"]
    done = counts["ok"] + counts["failed"]
    out.write(f"run        : {view['run']}\n")
    if view["version"]:
        out.write(f"version    : {view['version']}\n")
    if view["total"] is not None:
        pct = 100.0 * done / view["total"] if view["total"] else 100.0
        out.write(f"progress   : {done}/{view['total']} jobs ({pct:.0f}%)\n")
    out.write(
        f"jobs       : {counts['ok']} ok, {counts['failed']} failed, "
        f"{counts['running']} running"
        + (f", {view['pending']} pending" if view["pending"] is not None else "")
        + "\n"
    )
    if view["workers"]:
        out.write(f"workers    : {view['workers']}\n")
    if view["avg_job_seconds"] is not None:
        out.write(f"avg job    : {view['avg_job_seconds']:.1f}s\n")
    if view["eta_seconds"] is not None:
        out.write(f"eta        : {view['eta_seconds']:.0f}s remaining\n")
    for job in view["jobs"].values():
        state = job.get("state")
        if state == "running":
            out.write(f"  running: {job.get('label')}\n")
        elif state == "failed":
            out.write(f"  failed : {job.get('label')} ({job.get('error')})\n")
    return 0


def _cmd_doctor(args, out) -> int:
    """Probe each backend tier, print the resolved degradation ladder.

    Exit status 0 while any accelerated tier is healthy; nonzero when
    the pure-Python last resort is all that's left (every run would
    silently crawl — that deserves a red CI light, not a footnote).
    """
    import json as json_mod

    from repro.core.ladder import degradation_ladder, only_last_resort, render_ladder

    ladder = degradation_ladder()
    if args.json:
        out.write(
            json_mod.dumps([tier.to_dict() for tier in ladder], indent=2) + "\n"
        )
    else:
        out.write(render_ladder(ladder) + "\n")
    if only_last_resort(ladder):
        sys.stderr.write(
            "doctor: only the pure-Python last-resort tier is healthy\n"
        )
        return 1
    return 0


def _cmd_fuzz(args, out) -> int:
    """Differential fuzzing: corpus replay, then generative search."""
    from repro.fuzz import default_corpus_dir, fuzz, replay_corpus

    corpus = Path(args.corpus) if args.corpus else default_corpus_dir()
    failed = 0
    if not args.skip_replay:
        rows = replay_corpus(corpus)
        for row in rows:
            mark = "ok " if row["ok"] else "FAIL"
            out.write(f"replay {mark} {row['name']}: {row['detail']}\n")
            failed += not row["ok"]
        out.write(
            f"corpus: {len(rows) - failed}/{len(rows)} cases replayed clean\n"
        )
    if args.replay_only:
        return 1 if failed else 0
    report = fuzz(max_examples=args.cases, seed=args.seed, corpus_dir=corpus)
    out.write(report.render() + "\n")
    return 1 if (failed or not report.ok) else 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.common.errors import RunInterrupted

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, sys.stdout)
    except ConfigurationError as exc:
        sys.stderr.write(f"repro: error: {exc}\n")
        return 2
    except RunInterrupted as exc:
        # SIGINT mid-grid: the runner already shut its workers down and
        # flushed the manifest; hand the user the resume recipe.
        sys.stderr.write(f"\n{exc}\n")
        return 130


def _dispatch(args, out) -> int:
    if args.command == "describe":
        out.write(machine_params(args).describe() + "\n")
        return 0

    if args.command == "workloads":
        for name in PAPER_ORDER:
            workload = WORKLOADS[name]
            doc = (workload.__doc__ or "").strip().splitlines()[0]
            out.write(f"{name:10s} {doc}\n")
        return 0

    if args.command == "trace-profile":
        return _cmd_trace_profile(args, out)

    if args.command == "trace-validate":
        return _cmd_trace_validate(args, out)

    if args.command == "status":
        return _cmd_status(args, out)

    if args.command == "doctor":
        return _cmd_doctor(args, out)

    if args.command == "fuzz":
        return _cmd_fuzz(args, out)

    if args.command == "paper":
        return _cmd_paper(args, out)

    params = machine_params(args)
    _positive("--intensity", args.intensity)
    if args.refs is not None and args.refs < 0:
        raise ConfigurationError(f"--refs must be a count of at least 0, got {args.refs}")

    if args.command == "sweep":
        from repro.runner import JobSpec

        spec = JobSpec.sweep(
            params,
            args.workload,
            sizes=_sizes(args.sizes),
            max_refs_per_node=args.refs,
            overrides={"intensity": args.intensity},
            label=args.workload,
        )
        runner = batch_runner(args)
        (job,) = runner.run([spec])
        _print_grid_stats(runner)
        if not job.ok:  # JobFailure under --keep-going
            return 1
        study = job.summary.study_results()
        out.write(render_miss_curves(args.workload, study) + "\n")
        if args.dm:
            out.write("\n" + render_dm_vs_fa(args.workload, study) + "\n")
        return 0

    if args.command == "timing":
        from repro.runner import JobSpec

        org = Organization.DIRECT_MAPPED if args.dm else Organization.FULLY_ASSOCIATIVE
        if args.trace_out:
            # A tracer holds an open file, so a traced run executes
            # in-process instead of going through the batch runner.
            from repro.obs import Tracer

            workload = make_workload(args.workload, intensity=args.intensity)
            with Tracer(args.trace_out) as tracer:
                result = run_timing(
                    params, Scheme(args.scheme), workload, args.entries,
                    organization=org, max_refs_per_node=args.refs,
                    tracer=tracer,
                )
            sys.stderr.write(f"wrote {args.trace_out}\n")
        else:
            spec = JobSpec.timing(
                params,
                Scheme(args.scheme),
                args.workload,
                args.entries,
                organization=org,
                max_refs_per_node=args.refs,
                overrides={"intensity": args.intensity},
            )
            runner = batch_runner(args)
            (job,) = runner.run([spec])
            _print_grid_stats(runner)
            if not job.ok:  # JobFailure under --keep-going
                return 1
            result = job.summary
        if args.metrics_out:
            from repro.obs import write_metrics

            fmt = write_metrics(result.to_metrics(), args.metrics_out)
            sys.stderr.write(f"wrote {args.metrics_out} ({fmt})\n")
        breakdown = result.average_breakdown()
        out.write(f"scheme        : {args.scheme}\n")
        if result.backend is not None:
            out.write(f"engine        : {result.backend}\n")
        out.write(f"total time    : {result.total_time:,} cycles\n")
        out.write(f"references    : {result.total_references:,}\n")
        out.write(
            "breakdown     : "
            f"busy {breakdown.busy:,.0f}  sync {breakdown.sync:,.0f}  "
            f"loc {breakdown.loc_stall:,.0f}  rem {breakdown.rem_stall:,.0f}  "
            f"tlb {breakdown.tlb_stall:,.0f}\n"
        )
        out.write(
            f"translation   : {result.translation_overhead_ratio() * 100:.2f}% of memory stall\n"
        )
        summary = result.timing_summary()
        out.write(
            f"TLB/DLB       : {summary['misses']:,} misses / "
            f"{summary['accesses']:,} accesses ({summary['miss_rate'] * 100:.2f}%)\n"
        )
        return 0

    raise SystemExit(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
