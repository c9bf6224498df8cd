"""The paper's protocols: randomized coordination with atomic registers.

* :mod:`repro.core.two_process` — the two-processor protocol (Figure 1):
  one single-reader single-writer register per processor, expected 10
  steps to decide.
* :mod:`repro.core.three_unbounded` — the three-processor protocol with
  unbounded ``num`` fields (Figure 2).
* :mod:`repro.core.three_bounded` — the bounded-register three-processor
  protocol (Section 6, Figure 3).
* :mod:`repro.core.n_process` — generalization of the Figure 2 protocol
  to arbitrary n (deferred by the extended abstract to the full paper).
* :mod:`repro.core.multivalued` — Theorem 5's reduction from k-valued to
  binary coordination.
* :mod:`repro.core.naive` — the broken "flip until unanimous" protocol
  Section 5 warns about; kept as a baseline for benchmark E4.
* :mod:`repro.core.deterministic` — deterministic protocols fed to the
  impossibility checker (Section 3).
* :mod:`repro.core.consensus` — the high-level convenience API.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.protocol": ("ConsensusProtocol",),
    "repro.core.two_process": ("TwoProcessProtocol",),
    "repro.core.three_unbounded": ("ThreeUnboundedProtocol",),
    "repro.core.rules": ("PrefNum",),
    "repro.core.three_bounded": ("ThreeBoundedProtocol",),
    "repro.core.n_process": ("NProcessProtocol",),
    "repro.core.multivalued": ("MultiValuedProtocol",),
    "repro.core.naive": ("NaiveProtocol",),
    "repro.core.consensus": ("ConsensusOutcome", "solve"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
