"""Simulation substrate: the asynchronous shared-memory machine of Section 2.

This subpackage implements the computational model the paper defines:

* processors are state automata taking one atomic register operation per
  step (:mod:`repro.sim.process`),
* shared registers have declared reader/writer sets
  (:class:`~repro.sim.process.RegisterSpec`, laid out per run by
  :mod:`repro.sim.config`),
* an adversarial scheduler picks which processor moves next, and the
  kernel serializes everything into a single global order
  (:mod:`repro.sim.kernel`),
* randomness is seeded and replayable (:mod:`repro.sim.rng`),
* runs produce structured traces (:mod:`repro.sim.trace`) and batches of
  runs produce aggregate statistics (:mod:`repro.sim.runner`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sim.ops": ("Op", "ReadOp", "WriteOp", "BOTTOM"),
    "repro.sim.process": ("Automaton", "Branch", "RegisterSpec"),
    "repro.sim.config": ("Configuration",),
    "repro.sim.kernel": ("Simulation", "RunResult"),
    "repro.sim.memory": (
        "ATOMIC",
        "REGULAR",
        "SAFE",
        "MEMORY_NAMES",
        "AtomicMemory",
        "MemoryModel",
        "MemorySpec",
        "memory_spec",
    ),
    "repro.sim.weak": ("RegularMemory", "SafeMemory"),
    "repro.sim.rng": ("ReplayableRng", "derive_seed"),
    "repro.sim.transitions": ("TransitionCache",),
    "repro.sim.trace": ("StepRecord", "Trace"),
    "repro.sim.runner": ("ExperimentRunner", "RunStats", "BatchStats"),
    "repro.sim.viz": (
        "render_decision_summary",
        "render_register_timeline",
        "render_space_time",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
