"""Table IR: finite protocols lowered to integer arrays.

``repro.ir`` is the layer between the object-level protocol automata
(:mod:`repro.core`) and the engines that step integers:
:mod:`repro.ir.lower` interns states/values/branches into dense tables,
and :mod:`repro.ir.vector` steps runs over those tables behind
``engine="vector"``.  The IR layout, lowering rules, determinism
contract, and refusal cases are specified in docs/IR.md.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.ir.lower": (
        "CompiledProtocol",
        "IRCompileError",
        "IRUnsupportedError",
        "MAX_STATES",
        "MAX_VALUES",
        "compile_protocol",
    ),
    "repro.ir.vector": (
        "RunRecord",
        "SUPPORTED_SCHEDULERS",
        "VectorKernel",
        "replay_run",
        "vectorize_scheduler",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
