"""End-to-end benchmark for sweeps and verification.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-serial --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` runs the workload's commands as child processes, closed
loop, and prints the end-to-end metrics; ``--trace 1`` replays the same
commands in process with spans around the calls into each layer and
prints the per-layer metrics (``traced.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every result is also appended, stamped
with the commit, host and versions, to a JSONL results file.

Other modes::

    python3 perfbench/run.py --record 0-23 [--workload W]
    python3 perfbench/run.py --summary FILE       # medians and spreads
    python3 perfbench/run.py --compare OLD NEW    # flag moves past bounds

``--record`` refreshes ``expected.json`` for the given seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

DEFAULT_OUT = os.path.join(wl.BENCH_DIR, "results", "runs.jsonl")
# Unit-size commands timed per run for setup_s (at least; whole unit
# cycles are run), and timed repetitions of each measured command at
# least.
SETUP_SAMPLES = 16
MIN_REPS = 3
# The engine whose bit-identical output checks a sweep that has no
# recorded expectation (a seed outside expected.json).
ORACLE_ENGINE = "reference"


def _min_by_slot(outcomes: List[wl.Outcome],
                 field: str) -> Dict[int, float]:
    """Each slot's fastest repeat.  On a shared host other tenants only
    ever add time, in bursts, so the fastest repeat is the one they
    disturbed least."""
    values: Dict[int, List[float]] = {}
    for o in outcomes:
        values.setdefault(o.command.slot, []).append(getattr(o, field))
    return {slot: min(v) for slot, v in values.items()}


def _first_by_slot(outcomes: List[wl.Outcome]) -> Dict[int, wl.Outcome]:
    first: Dict[int, wl.Outcome] = {}
    for o in outcomes:
        first.setdefault(o.command.slot, o)
    return first


def _oracle_engine():
    from repro.engines import engine_names

    return ORACLE_ENGINE if ORACLE_ENGINE in engine_names("sim") else None


def _oracle_check(workload: str, seed: int, run_work: str,
                  outcomes: List[wl.Outcome],
                  expected: Dict[str, str]) -> List[wl.Outcome]:
    """Check an unrecorded seed against the oracle engine's output.

    When the measured cycle has a sweep key missing from ``expected``,
    one of its sweeps, picked by the seed, is run once more with
    ``--engine reference``, and its output must match the measured
    output bit for bit.  Over many seeds every sweep gets checked.
    Unit-size commands without a record are checked only for
    violations and repeatability.
    """
    engine = _oracle_engine()
    work = wl.fresh_dir(os.path.join(run_work, "oracle"))
    cmds = [c for c in wl.cycle(workload, seed, work)
            if c.kind == "sweep" and c.role != "warm"]
    if engine is None or all(c.key in expected for c in cmds):
        return []
    got = {o.command.key: o.fingerprint for o in outcomes if o.fingerprint}
    cmd = cmds[seed % len(cmds)]
    cmd.argv += ["--engine", engine]
    return [wl.run_checked(cmd, work, got)]


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: time the workload's commands as child processes."""
    expected = wl.load_expected()
    run_work = wl.fresh_dir(os.path.join(
        wl.WORK, f"{workload}-{seed}-{os.getpid()}"))
    setup: List[wl.Outcome] = []

    def unit_cycle(r: int) -> float:
        start = time.perf_counter()
        work = wl.fresh_dir(os.path.join(run_work, f"setup{r}"))
        for cmd in wl.cycle(workload, seed, work, unit=True):
            setup.append(wl.run_checked(cmd, work, expected))
        shutil.rmtree(work, ignore_errors=True)
        return time.perf_counter() - start

    try:
        # Unit cycles alternate with the first measured cycles, so the
        # setup_s samples spread over the run instead of its first
        # seconds.  The deadline leaves their time out: the measured
        # commands get the full --seconds.
        unit_cycle(0)
        deadline = time.perf_counter() + seconds
        measured: List[wl.Outcome] = []
        counts: Dict[int, int] = {}
        done, k = False, 0
        while not done:
            if k and len(setup) < SETUP_SAMPLES:
                deadline += unit_cycle(k)
            work = wl.fresh_dir(os.path.join(run_work, f"cycle{k}"))
            for cmd in wl.cycle(workload, seed, work):
                measured.append(wl.run_checked(cmd, work, expected))
                counts[cmd.slot] = counts.get(cmd.slot, 0) + 1
                if time.perf_counter() >= deadline and \
                        min(counts.values()) >= MIN_REPS:
                    done = True
                    break
            shutil.rmtree(work, ignore_errors=True)
            k += 1
        r = k
        while len(setup) < SETUP_SAMPLES:
            unit_cycle(r)
            r += 1
        wl.mark_unrepeatable(setup + measured)
        oracle = _oracle_check(workload, seed, run_work, setup + measured,
                               expected)
    finally:
        shutil.rmtree(run_work, ignore_errors=True)

    # Rates use CPU time (user plus system, workers included), which
    # leaves out time a command waited for a CPU another tenant held.
    cpu = _min_by_slot(measured, "cpu_s")
    wall = _min_by_slot(measured, "wall_s")
    first = _first_by_slot(measured)
    total_cpu = sum(cpu.values())
    if workload == "verify-statespace":
        runs = len(cpu)
    else:
        runs = sum(first[s].runs for s in cpu)
    states = sum(first[s].states for s in cpu)
    everything = setup + measured + oracle
    failed = [o for o in everything if not o.ok]
    metrics = {
        "setup_s": (statistics.median(o.cpu_s for o in setup), "s"),
        "runs_per_s": (runs / total_cpu, "1/cpu_s"),
        "states_per_s": (states / total_cpu, "1/cpu_s"),
        "peak_rss_mb": (max(o.maxrss_kb for o in setup + measured) / 1024,
                        "MB"),
    }
    detail = {
        "cycles": k,
        "commands": len(measured),
        "setup_wall_s": statistics.median(o.wall_s for o in setup),
        "runs_per_wall_s": runs / sum(wall.values()),
        "min_cpu_s": {str(s): c for s, c in sorted(cpu.items())},
        "min_wall_s": {str(s): w for s, w in sorted(wall.items())},
        "oracle_checks": len(oracle),
        "failures": [f"{o.command.key}: {o.error}" for o in failed],
    }
    return _result(everything, failed, metrics, detail)


def _result(attempted: list, failed: list, metrics: Dict[str, tuple],
            detail: dict) -> dict:
    return {
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "detail": detail,
    }


def record(seeds: List[int], workloads: List[str]) -> None:
    """Run one cycle (full and unit size) per workload and seed, and
    store every command's fingerprint in ``expected.json``, replacing
    what was recorded for those workloads before.

    Sweep fingerprints are kept only when the oracle engine reproduces
    them, so a recording never pins a wrong output.
    """
    expected = {key: value for key, value in wl.load_expected().items()
                if key.split("|")[0] not in workloads}
    engine = _oracle_engine()
    for workload in workloads:
        for seed in seeds:
            for unit in (True, False):
                work = wl.fresh_dir(os.path.join(wl.WORK, "record"))
                got = {}
                for cmd in wl.cycle(workload, seed, work, unit=unit):
                    o = wl.run_checked(cmd, work, {})
                    if not o.ok:
                        raise SystemExit(f"{cmd.key}: {o.error}")
                    got[cmd.key] = o.fingerprint
                if engine is not None and workload != "verify-statespace":
                    for cmd in wl.cycle(workload, seed, work, unit=unit):
                        cmd.argv += ["--engine", engine]
                        o = wl.run_checked(cmd, work, got)
                        if not o.ok:
                            raise SystemExit(f"oracle {cmd.key}: {o.error}")
                expected.update(got)
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {workload} seed {seed}", flush=True)
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(dict(sorted(expected.items())), fh, indent=1)
        fh.write("\n")


class Terminated(BaseException):
    """Raised on SIGTERM.  Not a SystemExit, so the in-process replay,
    which turns a command's SystemExit into its exit code, lets it
    through."""


def _terminate(signum, frame):
    raise Terminated()


def _parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="JSONL file every result is appended to")
    parser.add_argument("--record", metavar="SEEDS",
                        help="refresh expected.json for seeds like 0-23")
    parser.add_argument("--summary", metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(wl.SRC, "repro")):
        print(f"error: no program source at {wl.SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, wl.SRC)

    import report

    if args.summary:
        return report.summary(args.summary)
    if args.compare:
        return report.compare(*args.compare)
    if args.record:
        record(_parse_seeds(args.record),
               [args.workload] if args.workload else list(wl.WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    # Every way out, SIGTERM included, passes through stop_everything.
    signal.signal(signal.SIGTERM, _terminate)
    wl.become_subreaper()
    try:
        if args.trace:
            import traced

            result = traced.traced_run(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        wl.stop_everything()
    report.append_result(args.out, args.workload, args.seed, args.trace,
                         args.seconds, result)
    detail = result.pop("detail")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      **detail}, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
