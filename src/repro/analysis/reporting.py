"""Machine-readable experiment records.

Benchmarks print human tables; downstream analysis (plotting, paper
writing, regression tracking across library versions) wants JSON.  This
module serializes batch statistics and experiment records with enough
provenance (seed, protocol, scheduler, parameters) to regenerate them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.stats import summarize
from repro.sim.runner import BatchStats


@dataclasses.dataclass
class ExperimentRecord:
    """One measured cell of an experiment, with provenance."""

    experiment: str
    protocol: str
    scheduler: str
    inputs: str
    seed: int
    n_runs: int
    max_steps: int
    metrics: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def batch_metrics(stats: BatchStats) -> Dict[str, Any]:
    """Extract the standard metric set from a batch."""
    costs = stats.per_processor_costs()
    out: Dict[str, Any] = {
        "n_runs": stats.n_runs,
        "completion_rate": stats.completion_rate,
        "consistency_violations": stats.n_consistency_violations,
        "nontriviality_violations": stats.n_nontriviality_violations,
    }
    if costs:
        s = summarize(costs)
        out.update(
            mean_steps=s.mean, stdev_steps=s.stdev, p50_steps=s.p50,
            p90_steps=s.p90, p99_steps=s.p99, max_steps_observed=s.maximum,
        )
    flips = stats.mean_coin_flips()
    if flips is not None:
        out["mean_coin_flips"] = flips
    observability = stats.metrics_dict()
    if observability is not None:
        out["observability"] = observability
    return out


def record_batch(
    experiment: str,
    protocol: str,
    scheduler: str,
    inputs: str,
    seed: int,
    stats: BatchStats,
) -> ExperimentRecord:
    """Build an :class:`ExperimentRecord` from a finished batch."""
    return ExperimentRecord(
        experiment=experiment,
        protocol=protocol,
        scheduler=scheduler,
        inputs=inputs,
        seed=seed,
        n_runs=stats.n_runs,
        max_steps=stats.max_steps,
        metrics=batch_metrics(stats),
    )


def _platform_string() -> str:
    """:func:`platform.platform`'s string, without its subprocess.

    On Linux, ``platform.platform()`` runs ``uname -p`` (through
    :mod:`subprocess`) for a processor field it then drops whenever it
    repeats the machine or is unknown.  The same string is composed
    here from :func:`os.uname` and :func:`platform.libc_ver`, so a
    ``report --json`` starts no process; elsewhere the stdlib answers.
    """
    if not sys.platform.startswith("linux"):
        return platform.platform()
    uname = os.uname()
    libc, version = platform.libc_ver()
    parts = [uname.sysname, uname.release, uname.machine, "with",
             libc + version]
    text = "-".join(p.strip() for p in parts if p)
    for char in ' /\\:;"()':
        text = text.replace(char, "_" if char == " " else "-")
    text = text.replace("unknown", "")
    while "--" in text:
        text = text.replace("--", "-")
    return text.rstrip("-")


def environment_stamp() -> Dict[str, str]:
    """Reproducibility header for a report file."""
    import repro

    return {
        "library_version": repro.__version__,
        "python": sys.version.split()[0],
        "platform": _platform_string(),
    }


def dump_records(records: Sequence[ExperimentRecord],
                 path: Optional[str] = None, indent: int = 2) -> str:
    """Serialize records (plus environment stamp) to JSON.

    Returns the JSON text; writes it to ``path`` if given.
    """
    doc = {
        "environment": environment_stamp(),
        "records": [r.to_dict() for r in records],
    }
    text = json.dumps(doc, indent=indent, sort_keys=True, default=str)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load_records(path: str) -> List[ExperimentRecord]:
    """Read records back (environment stamp is dropped)."""
    with open(path) as fh:
        doc = json.load(fh)
    return [
        ExperimentRecord(**{k: v for k, v in raw.items()})
        for raw in doc["records"]
    ]
