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
from repro.system.results import RunResult


def phase_emitter(trace):
    """The packed "phase" progress event: ``emit(t, refs_processed)``.
    Shared with the compiled engine, which writes the same records."""
    return trace.event_emitter("phase", ("refs",))


class Simulator:
    """Drives one machine over its workload's reference streams."""

    def __init__(
        self,
        machine: Machine,
        max_refs_per_node: Optional[int] = None,
        phase_every: int = 2048,
        fast: bool = True,
    ) -> None:
        self.machine = machine
        self.max_refs_per_node = max_refs_per_node
        #: With a tracer attached, emit one "phase" progress event per
        #: this many processed references (refs/sec over simulated time).
        self.phase_every = phase_every
        #: Try the compiled columnar engine first (bit-identical; see
        #: repro.system.fast_simulator).  False forces the scalar path.
        self.fast = fast
        #: After run(): "compiled" or "scalar".
        self.backend: Optional[str] = None
        #: After run(): why the scalar path was used (None on the fast
        #: path; "fast=False" when explicitly disabled).
        self.fallback_reason: Optional[str] = None

    def run(self) -> RunResult:
        """Run to completion, preferring the compiled fast path.

        Both paths produce bit-identical results (the differential
        suite enforces it); ``backend``/``fallback_reason`` record
        which one actually ran.  A compiled-engine failure the scalar
        oracle recovers from — C-side allocation failure, the sticky
        internal error status, an injected fault — degrades to a
        scalar re-run of the same (still pristine) machine, recorded
        on the ladder's fallback counters and stamped as a structured
        ``fallback_reason``; it never crashes the run.
        """
        if self.fast:
            from repro.core.ladder import EngineDegraded
            from repro.system import fast_simulator

            reason = fast_simulator.fallback_reason(self)
            if reason is None:
                self.backend = "compiled"
                self.fallback_reason = None
                try:
                    return self._stamp(fast_simulator.run_fast(self))
                except (EngineDegraded, MemoryError) as exc:
                    if getattr(self, "_fast_state_mutated", False):
                        # Copy-back had begun: the machine is no longer
                        # pristine, so a scalar re-run would be wrong.
                        raise
                    reason = fast_simulator.degraded_reason(exc)
        else:
            reason = "fast=False"
        return self._run_scalar_stamped(reason)

    def _run_scalar_stamped(self, reason: str) -> RunResult:
        """Run on the scalar engine, stamped with why it was chosen."""
        self.backend = "scalar"
        self.fallback_reason = reason
        return self._stamp(self._run_scalar())

    def _stamp(self, result: RunResult) -> RunResult:
        result.backend = self.backend
        result.fallback_reason = self.fallback_reason
        return result

    def _run_scalar(self) -> RunResult:
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
        phase_every = self.phase_every if trace is not None else 0
        if trace is not None:
            emit_phase = phase_emitter(trace)
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
                    trace.event("sim.barrier", now, node=n, barrier=value)
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
                        trace.event("sim.lock", now, node=n, word=word)
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

        return RunResult(
            machine=machine,
            breakdowns=[node.breakdown for node in nodes],
            total_time=end_time,
            refs_per_node=refs_done,
            barriers=barriers_seen,
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
):
    """One run's :class:`~repro.runner.summary.RunSummary` and the agent
    that observed it, without a Python machine when the compiled engine
    can take the run (:class:`~repro.system.fast_simulator.HeadlessRun`).

    ``make_agent()`` returns a fresh
    :class:`~repro.system.taps.TimingAgent` or
    :class:`~repro.system.taptrace.CaptureAgent`.  Without the compiled
    backend the run builds a :class:`Machine` and goes through
    :meth:`Simulator.run`, which names the reason.  A headless run that
    degrades re-runs on a fresh machine and agent on the scalar engine,
    stamped ``"compiled engine degraded: ..."`` exactly as
    :meth:`Simulator.run` stamps it.
    """
    from repro.core import timing_kernels
    from repro.core.ladder import EngineDegraded
    from repro.runner.summary import RunSummary
    from repro.system import fast_simulator

    agent = make_agent()
    reason = None
    if timing_kernels.get_backend() is not None:
        run = fast_simulator.HeadlessRun(
            params, scheme, workload, agent, contention, max_refs_per_node, stream_key
        )
        try:
            return fast_simulator.run_fast(run), agent
        except (EngineDegraded, MemoryError) as exc:
            reason = fast_simulator.degraded_reason(exc)
        agent = make_agent()
    machine = Machine(params, scheme, workload, agent=agent, contention=contention)
    simulator = Simulator(machine, max_refs_per_node=max_refs_per_node)
    result = simulator.run() if reason is None else simulator._run_scalar_stamped(reason)
    return RunSummary.from_result(result), agent
