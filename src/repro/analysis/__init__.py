"""Analysis helpers: the paper's closed-form bounds and empirical stats.

:mod:`repro.analysis.theory` encodes every quantitative claim in the
paper as a function (tail envelopes, expected-step bounds, reduction
costs), so benchmarks compare measurement against formula rather than
against magic numbers.  :mod:`repro.analysis.stats` provides the
dependency-free statistics used to summarize Monte-Carlo batches.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.theory": (
        "two_process_tail_bound",
        "two_process_tail_paper_stated",
        "two_process_expected_steps_bound",
        "three_unbounded_num_tail_bound",
        "multivalued_instance_count",
        "geometric_tail",
    ),
    "repro.analysis.stats": (
        "Summary",
        "summarize",
        "empirical_tail",
        "mean_confidence_interval",
        "fit_geometric_rate",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
