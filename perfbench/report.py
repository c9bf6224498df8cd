"""Result files: stamping, spread summaries and two-file comparison.

A result file is JSONL, one line per benchmark run.  Each line carries
the stamps that make two files comparable: ``git describe``, the host,
and the Python and numpy versions.
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

import workloads as wl

BENCHMARK_JSON = os.path.join(wl.ROOT, "BENCHMARK.json")


def _bench_conftest():
    """``benchmarks/conftest.py``, for its ``git_describe``/``host_stamp``."""
    path = os.path.join(wl.ROOT, "benchmarks", "conftest.py")
    spec = importlib.util.spec_from_file_location("_bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stamps() -> Dict[str, object]:
    import numpy

    try:
        conftest = _bench_conftest()
        describe, host = conftest.git_describe(), conftest.host_stamp()
    except (ImportError, OSError):
        describe, host = "unknown", None
    return {
        "git_describe": describe,
        "host": host,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def append_result(path: str, workload: str, seed: int, trace: int,
                  seconds: float, result: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    line = {"workload": workload, "seed": seed, "trace": trace,
            "seconds": seconds, **stamps(), **result,
            "about": wl.ABOUT[workload]}
    with open(path, "a") as fh:
        fh.write(json.dumps(line, default=str) + "\n")


def _load(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _bounds() -> Dict[str, Tuple[float, str]]:
    with open(BENCHMARK_JSON) as fh:
        doc = json.load(fh)
    return {m["name"]: (m.get("bound"), m["better"])
            for m in doc["end_to_end"] + doc["per_layer"]}


def layer_units() -> Dict[str, str]:
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _grouped(rows: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for row in rows:
        for name, m in row["metrics"].items():
            out.setdefault((row["workload"], name), []).append(m["value"])
    return out


def summary(path: str) -> int:
    """Print median, quartiles and spread of every workload x metric.

    Spread is the interquartile range as a share of the median; the
    benchmark counts as steady when each end-to-end spread (except
    ``setup_s``) is below a third of its bound.
    """
    rows = _load(path)
    bounds = _bounds()
    failed = sum(r["failed"] for r in rows)
    print(f"{path}: {len(rows)} runs, {failed} failed commands, "
          f"stamps {sorted({r['git_describe'] for r in rows})}")
    print(f"{'workload':<18} {'metric':<28} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for (workload, name), values in sorted(_grouped(rows).items()):
        q1, med, q3 = _quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name, (None, ""))[0]
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  unsteady"
        print(f"{workload:<18} {name:<28} {len(values):>3} {med:>12.6g} "
              f"{q1:>12.6g} {q3:>12.6g} {spread:>7.3f} "
              f"{bound if bound is not None else '':>6}{flag}")
    return 0


def compare(old_path: str, new_path: str) -> int:
    """Compare two result files metric by metric.

    Flags each end-to-end metric whose new median is worse than the old
    one by more than its bound.  Refuses files measured on different
    hosts; exits 1 when any metric regressed.
    """
    old, new = _load(old_path), _load(new_path)
    hosts = {json.dumps(r["host"], sort_keys=True) for r in old + new}
    if len(hosts) != 1:
        print(f"refusing to compare results from different hosts: "
              f"{sorted(hosts)}", file=sys.stderr)
        return 2
    bounds = _bounds()
    a, b = _grouped(old), _grouped(new)
    regressed = 0
    print(f"old: {sorted({r['git_describe'] for r in old})}  "
          f"new: {sorted({r['git_describe'] for r in new})}")
    print(f"{'workload':<18} {'metric':<28} "
          f"{'old: median [q1, q3]':<34} {'new: median [q1, q3]':<34} "
          f"{'change':>8}")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        oq1, omed, oq3 = _quartiles(a[key])
        nq1, nmed, nq3 = _quartiles(b[key])
        change = (nmed - omed) / omed if omed else 0.0
        bound, better = bounds.get(name, (None, "lower"))
        worse = change if better == "lower" else -change
        flag = ""
        if bound is not None and worse > bound:
            flag, regressed = "  REGRESSED", regressed + 1
        old = f"{omed:.6g} [{oq1:.4g}, {oq3:.4g}]"
        new = f"{nmed:.6g} [{nq1:.4g}, {nq3:.4g}]"
        print(f"{workload:<18} {name:<28} {old:<34} {new:<34} "
              f"{change:>+8.1%}{flag}")
    return 1 if regressed else 0
