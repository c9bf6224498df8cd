"""System configurations: the global states of Section 2.

A configuration consists of the state of each processor together with
the contents of the shared registers.  Configurations are immutable and
hashable, which is what allows both the adaptive adversary (a mapping
from configurations to processors) and the exhaustive model checker to
work directly on them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.errors import AccessViolation
from repro.sim.process import Automaton, RegisterSpec


class RegisterLayout:
    """Immutable mapping between register names and value-tuple slots.

    Shared by every configuration of a run (and every node of a model-
    checking graph), so individual configurations only carry a compact
    tuple of values.
    """

    def __init__(self, specs: Sequence[RegisterSpec]) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {names}")
        self._specs: Tuple[RegisterSpec, ...] = tuple(specs)
        #: Register names in slot order.
        self.names: Tuple[str, ...] = tuple(names)
        self._index: Dict[str, int] = {spec.name: i for i, spec in enumerate(specs)}
        self._initial = tuple(spec.initial for spec in self._specs)

    @classmethod
    def for_protocol(cls, protocol: Automaton) -> "RegisterLayout":
        return cls(protocol.registers())

    @property
    def specs(self) -> Tuple[RegisterSpec, ...]:
        return self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def initial_values(self) -> Tuple[Hashable, ...]:
        """The register contents of an initial configuration."""
        return self._initial

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AccessViolation(f"unknown register {name!r}") from None

    def spec_of(self, name: str) -> RegisterSpec:
        return self._specs[self.index_of(name)]

    def check_read(self, pid: int, name: str) -> int:
        """Validate that ``pid`` may read ``name``; return its slot index."""
        idx = self.index_of(name)
        spec = self._specs[idx]
        if pid not in spec.readers:
            raise AccessViolation(
                f"processor {pid} may not read register {name!r} "
                f"(readers: {spec.readers})"
            )
        return idx

    def check_write(self, pid: int, name: str) -> int:
        """Validate that ``pid`` may write ``name``; return its slot index."""
        idx = self.index_of(name)
        spec = self._specs[idx]
        if pid not in spec.writers:
            raise AccessViolation(
                f"processor {pid} may not write register {name!r} "
                f"(writers: {spec.writers})"
            )
        return idx


@dataclasses.dataclass(frozen=True)
class Configuration:
    """An immutable global snapshot: processor states + register values.

    ``states[i]`` is processor i's automaton state; ``registers[j]`` is
    the *committed* content of the register in slot j of the associated
    :class:`RegisterLayout` (the layout itself is not stored here to
    keep configurations small and trivially hashable).

    ``mem`` carries the memory model's extra state beyond the committed
    values — the pending-write snapshot of a weak
    :class:`~repro.sim.memory.MemoryModel` (see its ``snapshot``
    method).  It is ``None`` under atomic semantics *and* in quiescent
    weak-memory configurations, so configurations produced before the
    memory-semantics layer existed compare equal to today's atomic
    ones.
    """

    states: Tuple[Hashable, ...]
    registers: Tuple[Hashable, ...]
    mem: Optional[Hashable] = None

    @classmethod
    def initial(cls, protocol: Automaton, layout: RegisterLayout,
                inputs: Sequence[Hashable]) -> "Configuration":
        """Build the initial configuration for the given input assignment."""
        if len(inputs) != protocol.n_processes:
            raise ValueError(
                f"expected {protocol.n_processes} inputs, got {len(inputs)}"
            )
        states = tuple(
            protocol.initial_state(pid, value) for pid, value in enumerate(inputs)
        )
        return cls(states=states, registers=layout.initial_values())

    def with_state(self, pid: int, state: Hashable) -> "Configuration":
        """Copy of this configuration with processor ``pid``'s state replaced."""
        states = self.states[:pid] + (state,) + self.states[pid + 1:]
        return Configuration(states=states, registers=self.registers,
                             mem=self.mem)

    def with_register(self, idx: int, value: Hashable) -> "Configuration":
        """Copy of this configuration with register slot ``idx`` replaced."""
        regs = self.registers[:idx] + (value,) + self.registers[idx + 1:]
        return Configuration(states=self.states, registers=regs,
                             mem=self.mem)

    def decisions(self, protocol: Automaton) -> Dict[int, Hashable]:
        """Map of pid -> decided value for processors in decision states."""
        out = {}
        for pid, state in enumerate(self.states):
            value = protocol.output(pid, state)
            if value is not None:
                out[pid] = value
        return out
