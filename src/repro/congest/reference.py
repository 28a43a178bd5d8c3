"""The reference CONGEST engine: a deliberately naive executable spec.

:class:`repro.congest.engine.FastEngine` is differentially tested
against this engine (``tests/test_engine_equivalence.py``,
``tests/test_engine_fuzz.py``).  It is written to be read line by line
against ``docs/congest_model.md``, so it does everything the slow,
obvious way: every round it scans every live vertex to find the due
set, steps them in canonical order, drains every outbox, sizes each
message with :func:`~repro.congest.message.message_bits`, and hands it
to the shared channel.  When nothing is due it jumps the clock to the
earliest pending event, because the skipped stretch is observable
(``skipped_before`` in traces, ``record_skipped`` in metrics).

Everything that does not depend on scheduling — the state layout, the
message channel, crash recovery, checkpoints and the per-round
bookkeeping — is shared with the fast engine through
:class:`repro.congest.channel.EngineCore`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import MessageTooLargeError, ProtocolError
from .channel import EngineCore
from .faults import NO_FAULTS
from .message import message_bits


class ReferenceEngine(EngineCore):
    """Scan-every-vertex engine; see the module docstring."""

    name = "reference"

    def run(
        self,
        max_rounds: int = 10_000,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[..., None]] = None,
    ):
        """Execute until all vertices halt or ``max_rounds`` elapse.

        A checkpoint is captured after every ``checkpoint_every``-th
        executed round and passed to ``on_checkpoint``; a restored
        engine continues from the checkpointed round.
        """
        if not self._initialized:
            self._initialized = True
            for i in self._initial_cohort():
                self._algorithms[i].initialize(self._contexts[i])
            self._drain(range(self._n))
            self._runnable = {
                i for i in range(self._n) if not self._contexts[i]._halted
            }

        while self._round < max_rounds and (
            self._live_count() > 0 or self._rejoin_queue
        ):
            round_number = self._round + 1
            self._deliver_delayed(round_number)
            due = self._due(round_number)
            skipped = 0
            if not due:
                # Nobody acts this round: jump to the next event — a
                # live vertex's wakeup, a rejoin, or a delayed release.
                events = [
                    w
                    for i, w in enumerate(self._wake_round)
                    if w is not None and not self._contexts[i]._halted
                ]
                events += [r for r, _ in self._rejoin_queue]
                events += list(self._delay_queue)
                if not events:
                    break  # nothing will ever happen again
                target = min(events)
                if target > max_rounds:
                    self.metrics.record_skipped(max_rounds - self._round)
                    self._round = max_rounds
                    break
                skipped = target - round_number
                self.metrics.record_skipped(skipped)
                round_number = target
                self._deliver_delayed(round_number)
                due = self._due(round_number)
            self._round = round_number
            revived = self._process_rejoins(round_number)
            delivered = self._open_round()
            live_before = self._live_count()
            stepped: List[int] = []
            crashed = 0
            for i in due:
                ctx = self._contexts[i]
                crash = self._crash_round(i)
                if crash is not None and round_number >= crash:
                    # Fail-stop: the vertex never steps at or after its
                    # crash round and its mail dies with it.
                    ctx._halted = True
                    ctx._output = None
                    self._crashed_ids.add(i)
                    self._pending[i] = None
                    crashed += 1
                    continue
                ctx.round_number = round_number
                inbox = self._pending[i] or {}
                self._pending[i] = None
                self._algorithms[i].step(ctx, inbox)
                stepped.append(i)
            self._drain(range(self._n))
            self._reschedule(stepped)
            self._close_round(
                delivered,
                stepped,
                crashed=crashed,
                idle=live_before - len(stepped) - crashed,
                halted=self._n - self._live_count(),
                skipped=skipped,
                rejoined=len(revived),
                checkpoint_every=checkpoint_every,
                on_checkpoint=on_checkpoint,
            )
        return self._result()

    def _crash_round(self, i: int) -> Optional[int]:
        """Round at which rank ``i`` fail-stops, or None."""
        return None if self._crash_rounds is None else self._crash_rounds[i]

    def _live_count(self) -> int:
        """Number of vertices that have not halted."""
        return sum(1 for ctx in self._contexts if not ctx._halted)

    def _due(self, round_number: int) -> List[int]:
        """Live vertices that are runnable, have mail, or whose wakeup
        round has come, in canonical order."""
        due = []
        for i in range(self._n):
            if self._contexts[i]._halted:
                continue
            wake = self._wake_round[i]
            if (
                i in self._runnable
                or self._pending[i] is not None
                or (wake is not None and wake <= round_number)
            ):
                due.append(i)
        return due

    def _reschedule(self, stepped: List[int]) -> None:
        """Ask each vertex that stepped when it next needs to run."""
        for i in stepped:
            ctx = self._contexts[i]
            self._runnable.discard(i)
            self._wake_round[i] = None
            if ctx._halted:
                continue
            algorithm = self._algorithms[i]
            if not algorithm.is_idle(ctx):
                self._runnable.add(i)
                continue
            wake = algorithm.next_wakeup(ctx)
            crash = self._crash_round(i)
            if crash is not None and crash > self._round and (
                wake is None or crash < wake
            ):
                # An idle vertex still notices its crash on time.
                wake = crash
            if wake is not None and wake > self._round:
                self._wake_round[i] = wake

    def _collect(self, senders) -> None:
        """Charge every queued message of ``senders`` and hand it to the
        channel; the traffic is recorded in the round it arrives."""
        per_edge = {}
        messages = bits = max_bits = 0
        bits_hist = {}
        counts = [0] * len(NO_FAULTS)
        for i in senders:
            v = self._verts[i]
            for neighbor, payload in self._contexts[i]._drain_outbox():
                size = message_bits(payload)
                if size > self.budget.bits:
                    raise MessageTooLargeError(
                        size, self.budget.bits,
                        detail=f"from {v!r} to {neighbor!r}",
                    )
                max_bits = max(max_bits, size)
                j = self._index[neighbor]
                edge = i * self._n + j
                per_edge[edge] = per_edge.get(edge, 0) + 1
                if self.strict and per_edge[edge] > self.capacity:
                    raise ProtocolError(
                        f"edge {(v, neighbor)!r} carried {per_edge[edge]} "
                        f"messages in one round (capacity {self.capacity})"
                    )
                messages += 1
                bits += size
                if self._want_bits_hist:
                    bits_hist[size] = bits_hist.get(size, 0) + 1
                self._transmit(
                    v, neighbor, j, payload, size, per_edge[edge] - 1, counts
                )
        self.metrics.max_message_bits = max(
            self.metrics.max_message_bits, max_bits
        )
        if messages and self._registry is not None:
            self._registry.count("congest.delivery.scalar")
        self._inflight = (per_edge, messages, bits, bits_hist, tuple(counts))
