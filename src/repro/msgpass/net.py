"""The asynchronous message-passing machine.

Mirrors the structure of :mod:`repro.sim` but for the model the paper
compares against: processes communicate by sending messages into an
unbounded network, and the adversary — again with complete knowledge of
states and in-flight traffic — chooses which message is delivered next.
Messages can be delayed arbitrarily (never dropped unless the recipient
crashed), which is precisely the asynchrony FLP and Ben-Or live in.

Processes are message-driven automata:

* :meth:`MPAutomaton.on_start` fires once per process and returns its
  initial broadcast;
* :meth:`MPAutomaton.on_message` consumes one delivered message and
  returns the new state plus any messages to send (coin flips draw from
  the per-process stream passed in — sampled at delivery time, so the
  adversary cannot foresee them);
* :meth:`MPAutomaton.output` exposes decisions, as in the register
  world.

Fail-stop crashes: a crashed process receives nothing further and sends
nothing further; messages already sent by it remain deliverable (they
left the building before the crash).
"""

from __future__ import annotations

import abc
import dataclasses
import itertools
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.rng import ReplayableRng


@dataclasses.dataclass(frozen=True)
class Message:
    """One in-flight message.

    ``uid`` disambiguates identical payloads so the network is a true
    multiset; delivery order is entirely up to the adversary.
    """

    sender: int
    dest: int
    payload: Hashable
    uid: int

    def render(self) -> str:
        return f"{self.sender}->{self.dest}: {self.payload!r}"


class MPAutomaton(abc.ABC):
    """A message-passing protocol (one automaton for all processes)."""

    n_processes: int = 0

    @abc.abstractmethod
    def initial_state(self, pid: int, input_value: Hashable) -> Hashable:
        """State before the start event."""

    @abc.abstractmethod
    def on_start(self, pid: int, state: Hashable,
                 rng: ReplayableRng) -> Tuple[Hashable, Sequence[Tuple[int, Hashable]]]:
        """The process's first action; returns (state, [(dest, payload)])."""

    @abc.abstractmethod
    def on_message(self, pid: int, state: Hashable, sender: int,
                   payload: Hashable,
                   rng: ReplayableRng) -> Tuple[Hashable, Sequence[Tuple[int, Hashable]]]:
        """Consume one delivered message; returns (state, sends)."""

    @abc.abstractmethod
    def output(self, pid: int, state: Hashable) -> Optional[Hashable]:
        """Decided value, or None."""

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclasses.dataclass
class MPRunResult:
    """Summary of one message-passing run."""

    protocol_name: str
    inputs: Tuple[Hashable, ...]
    decisions: Dict[int, Hashable]
    deliveries: int
    messages_sent: int
    crashed: frozenset
    stuck: bool  # no deliverable message, yet undecided live processes

    @property
    def decided_values(self) -> set:
        return set(self.decisions.values())

    @property
    def consistent(self) -> bool:
        return len(self.decided_values) <= 1

    @property
    def all_live_decided(self) -> bool:
        n = len(self.inputs)
        return all(
            pid in self.decisions
            for pid in range(n) if pid not in self.crashed
        )


class MPSimulation:
    """One run: adversary-driven delivery until decision or exhaustion.

    The delivery scheduler sees the full simulation (states, in-flight
    messages) and returns the :class:`Message` to deliver next, or a
    pid to crash (see :mod:`repro.msgpass.adversaries`).
    """

    def __init__(
        self,
        protocol: MPAutomaton,
        inputs: Sequence[Hashable],
        scheduler,
        rng: ReplayableRng,
    ) -> None:
        if protocol.n_processes < 1:
            raise SimulationError("protocol declares no processes")
        if len(inputs) != protocol.n_processes:
            raise SimulationError(
                f"expected {protocol.n_processes} inputs, got {len(inputs)}"
            )
        self.protocol = protocol
        self.inputs = tuple(inputs)
        self.scheduler = scheduler
        self.states: List[Hashable] = []
        #: In-flight messages by ``uid``, in send order.
        self.in_flight: Dict[int, Message] = {}
        self.crashed: frozenset = frozenset()
        self.decisions: Dict[int, Hashable] = {}
        self.deliveries = 0
        self.messages_sent = 0
        self._uid = itertools.count()
        self._rngs = [
            rng.child("mp-proc", pid) for pid in range(protocol.n_processes)
        ]
        # Start events: every process boots and broadcasts.
        for pid in range(protocol.n_processes):
            state = protocol.initial_state(pid, self.inputs[pid])
            state, sends = protocol.on_start(pid, state, self._rngs[pid])
            self.states.append(state)
            self._send_all(pid, sends)
            self._note_decision(pid)

    # ------------------------------------------------------------------

    def _send_all(self, sender: int,
                  sends: Sequence[Tuple[int, Hashable]]) -> None:
        for dest, payload in sends:
            if not 0 <= dest < self.protocol.n_processes:
                raise SimulationError(f"message to unknown process {dest}")
            uid = next(self._uid)
            self.in_flight[uid] = Message(sender=sender, dest=dest,
                                          payload=payload, uid=uid)
            self.messages_sent += 1

    def _note_decision(self, pid: int) -> None:
        value = self.protocol.output(pid, self.states[pid])
        if value is not None and pid not in self.decisions:
            self.decisions[pid] = value

    def deliverable(self) -> List[Message]:
        """Messages whose recipients are alive and undecided.

        Decided processes have halted (as in the register model); their
        unconsumed mail is irrelevant to the run's outcome.
        """
        return [
            m for m in self.in_flight.values()
            if m.dest not in self.crashed and m.dest not in self.decisions
        ]

    def crash(self, pid: int) -> None:
        if pid in self.crashed:
            raise SimulationError(f"process {pid} already crashed")
        self.crashed = self.crashed | {pid}

    def deliver(self, message: Message) -> None:
        if self.in_flight.get(message.uid) != message:
            raise SimulationError("delivering a message not in flight")
        if message.dest in self.crashed:
            raise SimulationError("delivering to a crashed process")
        del self.in_flight[message.uid]
        pid = message.dest
        if pid in self.decisions:
            return  # decided processes ignore mail
        state, sends = self.protocol.on_message(
            pid, self.states[pid], message.sender, message.payload,
            self._rngs[pid],
        )
        self.states[pid] = state
        self._send_all(pid, sends)
        self.deliveries += 1
        self._note_decision(pid)

    @property
    def finished(self) -> bool:
        n = self.protocol.n_processes
        return all(
            pid in self.decisions or pid in self.crashed
            for pid in range(n)
        )

    def run(self, max_deliveries: int = 100_000) -> MPRunResult:
        """Deliver until every live process decides, the scheduler gives
        up, or the budget runs out."""
        stuck = False
        while not self.finished and self.deliveries < max_deliveries:
            choice = self.scheduler.choose(self)
            if choice is None:
                stuck = True
                break
            if isinstance(choice, int):
                self.crash(choice)
                continue
            self.deliver(choice)
        return MPRunResult(
            protocol_name=self.protocol.name,
            inputs=self.inputs,
            decisions=dict(self.decisions),
            deliveries=self.deliveries,
            messages_sent=self.messages_sent,
            crashed=self.crashed,
            stuck=stuck or (not self.finished and not self.deliverable()),
        )
