"""Trace-interleaved multiprocessor simulation.

The simulator always advances the node with the smallest local clock, so
cross-node interactions (coherence interleaving, barrier imbalance, lock
contention) happen in a globally consistent time order even though each
reference is processed atomically.  Synchronization semantics:

* **barrier** — a node arriving waits until every *active* node has
  arrived; the wait is charged to ``sync``.  (A node whose stream ends
  counts as arrived at every future barrier, so imbalanced tails cannot
  deadlock the machine.)
* **lock / unlock** — locks are FIFO queues keyed by the lock word's
  address; acquisition and release each perform a real store to the
  lock word (generating genuine coherence traffic, which is how
  RAYTRACE's task-queue contention shows up).  Waiting time is charged
  to ``sync``.

At the end of the run every node's idle tail (waiting for the slowest
node to finish) is charged to ``sync``, as if a final barrier closed the
program — this is how the paper's per-benchmark bars stay comparable.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Optional

from repro.common.errors import ReproError
from repro.system.machine import Machine
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE


#: With a tracer attached, one "phase" progress event per this many
#: processed references (refs/sec over simulated time).
PHASE_EVERY = 2048


def phase_emitter(trace):
    """The packed "phase" progress event: ``emit(t, refs_processed)``.
    Shared with the compiled engine, which writes the same records, as
    it does for the two emitters below."""
    return trace.event_emitter("phase", ("refs",))


def barrier_emitter(trace):
    """The packed barrier arrival: ``emit(t, node, barrier)``."""
    return trace.event_emitter("sim.barrier", ("node", "barrier"))


def lock_emitter(trace):
    """The packed immediate lock acquisition: ``emit(t, node, word)``."""
    return trace.event_emitter("sim.lock", ("node", "word"))


class Simulator:
    """Drives one machine over its workload's reference streams on the
    scalar engine, the differential oracle of the compiled one.
    Compiled runs build no machine: see :func:`run_summary`."""

    def __init__(self, machine: Machine, max_refs_per_node: Optional[int] = None) -> None:
        self.machine = machine
        self.max_refs_per_node = max_refs_per_node
        #: After run(): "scalar".
        self.backend: Optional[str] = None
        #: Why the scalar engine runs, set by the caller that chose it
        #: (:func:`run_summary`, a CC-NUMA runner cell); None when the
        #: caller names no reason.  Stamped on the summary.
        self.fallback_reason: Optional[str] = None

    def run(self):
        """Run to completion on the scalar engine; returns the run's
        :class:`~repro.runner.summary.RunSummary`, stamped with
        ``backend`` and this simulator's ``fallback_reason``."""
        from repro.runner.summary import RunSummary

        self.backend = "scalar"
        machine = self.machine
        nodes = machine.nodes
        count = len(nodes)
        think = machine.workload.think_cycles
        streams = [machine.node_stream(n) for n in range(count)]
        clock = [0] * count
        refs_done = [0] * count
        finished = [False] * count
        active = count
        barriers_seen = 0
        total_refs_processed = 0
        trace = getattr(machine, "tracer", None)
        phase_every = PHASE_EVERY if trace is not None else 0
        if trace is not None:
            emit_phase = phase_emitter(trace)
            emit_barrier = barrier_emitter(trace)
            emit_lock = lock_emitter(trace)
            trace.begin("run", 0, max_refs=self.max_refs_per_node)

        # Barrier state: id -> {node: arrival_time}
        barrier_arrivals: Dict[int, Dict[int, int]] = {}
        # Lock state: lock word address -> holder node (or None) + queue.
        lock_holder: Dict[int, Optional[int]] = {}
        lock_queue: Dict[int, deque] = {}

        heap = [(0, n) for n in range(count)]
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        max_refs = self.max_refs_per_node

        def finish(node: int, now: int) -> None:
            nonlocal active
            finished[node] = True
            clock[node] = now
            active -= 1
            # Process exit releases any lock still held (only reachable
            # when max_refs_per_node truncates inside a critical section).
            for word, holder in list(lock_holder.items()):
                if holder != node:
                    continue
                queue = lock_queue.get(word)
                if queue:
                    waiter, arrival = queue.popleft()
                    lock_holder[word] = waiter
                    nodes[waiter].breakdown.sync += max(0, now - arrival)
                    heappush(heap, (max(now, arrival), waiter))
                else:
                    lock_holder[word] = None
            # A finished node satisfies every outstanding barrier.
            for barrier_id in list(barrier_arrivals):
                self._maybe_release_barrier(
                    barrier_id, barrier_arrivals, clock, heap, nodes, active
                )

        while heap:
            now, n = heappop(heap)
            if finished[n]:
                continue
            if max_refs is not None and refs_done[n] >= max_refs:
                finish(n, now)
                continue
            event = next(streams[n], None)
            if event is None:
                finish(n, now)
                continue
            op, value = event

            if op == READ or op == WRITE:
                node = nodes[n]
                node.breakdown.busy += think
                stall = node.reference(op == WRITE, value, now + think)
                clock[n] = now + think + stall
                refs_done[n] += 1
                total_refs_processed += 1
                heappush(heap, (clock[n], n))
                if phase_every and total_refs_processed % phase_every == 0:
                    emit_phase(clock[n], total_refs_processed)
            elif op == BARRIER:
                barriers_seen += 1
                if trace is not None:
                    emit_barrier(now, n, value)
                arrivals = barrier_arrivals.setdefault(value, {})
                if n in arrivals:
                    raise ReproError(
                        f"node {n} reached barrier {value} twice before release"
                    )
                arrivals[n] = now
                clock[n] = now
                self._maybe_release_barrier(
                    value, barrier_arrivals, clock, heap, nodes, active
                )
            elif op == LOCK:
                word = value
                holder = lock_holder.get(word)
                if holder is None:
                    lock_holder[word] = n
                    if trace is not None:
                        emit_lock(now, n, word)
                    stall = nodes[n].reference(True, word, now)
                    clock[n] = now + stall
                    heappush(heap, (clock[n], n))
                else:
                    lock_queue.setdefault(word, deque()).append((n, now))
            elif op == UNLOCK:
                word = value
                if lock_holder.get(word) != n:
                    raise ReproError(
                        f"node {n} unlocks {word:#x} held by {lock_holder.get(word)}"
                    )
                stall = nodes[n].reference(True, word, now)
                release_time = now + stall
                clock[n] = release_time
                heappush(heap, (clock[n], n))
                queue = lock_queue.get(word)
                if queue:
                    waiter, arrival = queue.popleft()
                    lock_holder[word] = waiter
                    nodes[waiter].breakdown.sync += release_time - arrival
                    acquire_stall = nodes[waiter].reference(True, word, release_time)
                    clock[waiter] = release_time + acquire_stall
                    heappush(heap, (clock[waiter], waiter))
                else:
                    lock_holder[word] = None
            else:  # pragma: no cover - defensive
                raise ReproError(f"unknown opcode {op}")

        if barrier_arrivals:
            raise ReproError(
                f"deadlock: barriers {sorted(barrier_arrivals)} never released"
            )
        held = [w for w, h in lock_holder.items() if h is not None]
        if held:
            raise ReproError(f"locks still held at end of run: {held}")

        # Idle tails count as synchronization (final implicit barrier).
        end_time = max(clock) if clock else 0
        for n in range(count):
            nodes[n].breakdown.sync += end_time - clock[n]

        if trace is not None:
            trace.end(end_time, refs=total_refs_processed, barriers=barriers_seen)

        return RunSummary.from_result(
            machine.scheme,
            machine.workload.name,
            end_time,
            refs_done,
            barriers_seen,
            [node.breakdown for node in nodes],
            machine.merged_counters(),
            [(node.read_latency, node.write_latency) for node in nodes],
            machine.agent,
            self.backend,
            self.fallback_reason,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _maybe_release_barrier(barrier_id, barrier_arrivals, clock, heap, nodes, active) -> None:
        arrivals = barrier_arrivals.get(barrier_id)
        if arrivals is None:
            return
        waiting = len(arrivals)
        if waiting < active:
            return
        release = max(arrivals.values()) if arrivals else 0
        for node_id, arrived in arrivals.items():
            nodes[node_id].breakdown.sync += release - arrived
            clock[node_id] = release
            heapq.heappush(heap, (release, node_id))
        del barrier_arrivals[barrier_id]


def run_summary(
    params,
    scheme,
    workload,
    make_agent,
    contention: bool = False,
    max_refs_per_node: Optional[int] = None,
    stream_key: Optional[str] = None,
    relaxed_writes: bool = False,
    tracer=None,
    fast: bool = True,
):
    """One run's :class:`~repro.runner.summary.RunSummary` and the agent
    that observed it, on the compiled engine without a Python machine
    (:class:`~repro.system.fast_simulator.HeadlessRun`) when it can.

    ``make_agent()`` returns a fresh
    :class:`~repro.system.taps.TimingAgent`,
    :class:`~repro.system.taptrace.CaptureAgent` or passive
    :class:`~repro.coma.protocol.TranslationAgent`; an optional
    :class:`~repro.obs.trace.Tracer` records the run either way.
    ``fast=False``, any other agent type or a missing compiled backend
    runs a :class:`Machine` on the scalar engine instead, and a compiled run
    that degrades re-runs on a fresh machine and agent — unless trace
    records already left C, when the failure propagates.
    ``fallback_reason`` says why the scalar engine ran, in that order:
    ``"fast=False"``, ``"unsupported agent ..."``, ``"compiled backend
    unavailable: ..."``, or ``"compiled engine degraded: ..."``.
    """
    from repro.core import timing_kernels
    from repro.core.ladder import EngineDegraded
    from repro.system import fast_simulator

    agent = make_agent()
    if not fast:
        reason = "fast=False"
    elif not fast_simulator.models_agent(agent):
        reason = f"unsupported agent {type(agent).__name__}"
    elif timing_kernels.get_backend() is None:
        reason = fast_simulator.unavailable_reason()
    else:
        run = fast_simulator.HeadlessRun(
            params, scheme, workload, agent, contention, max_refs_per_node, stream_key,
            relaxed_writes, tracer,
        )
        try:
            return fast_simulator.run_fast(run), agent
        except (EngineDegraded, MemoryError) as exc:
            if run.mutated:
                raise
            reason = fast_simulator.degraded_reason(exc)
        agent = make_agent()
    summary = scalar_summary(
        params, scheme, workload, agent, reason, contention, max_refs_per_node,
        relaxed_writes, tracer,
    )
    return summary, agent


def scalar_summary(
    params,
    scheme,
    workload,
    agent,
    reason: Optional[str],
    contention: bool = False,
    max_refs_per_node: Optional[int] = None,
    relaxed_writes: bool = False,
    tracer=None,
):
    """One run on a :class:`Machine` and the scalar engine, its summary
    stamped with ``reason`` as its ``fallback_reason``: the last rung
    of :func:`run_summary`'s ladder, and the re-run of a timing set's
    degraded cell."""
    machine = Machine(
        params, scheme, workload, agent=agent, contention=contention,
        relaxed_writes=relaxed_writes, tracer=tracer,
    )
    simulator = Simulator(machine, max_refs_per_node=max_refs_per_node)
    simulator.fallback_reason = reason
    return simulator.run()
