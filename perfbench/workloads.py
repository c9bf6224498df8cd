"""The benchmark's workloads: the CLI commands each one issues, and the
checks every command's output must pass.

A workload is a fixed cycle of ``python -m repro`` commands generated
from the benchmark seed.  The program sees only those commands; every
``--seed`` it receives is derived here from the benchmark seed.
``run.py`` repeats the cycle (closed loop, one client: the next command
starts when the previous one exits) until its time is up.

Correctness is checked per command.  A command fails when it exits
non-zero, reports a consistency or nontriviality violation,
quarantines a shard, executes runs on a warm store pass, or prints a
result whose fingerprint differs from the one recorded in
``expected.json`` for that command.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

WORKLOADS = ("sweep-serial", "sweep-sharded", "verify-statespace")

# Why each workload exists, which layers it loads and which it should
# leave unmoved.  Printed with every result so a reader of one result
# file needs nothing else.
ABOUT: Dict[str, Dict[str, object]] = {
    "sweep-serial": {
        "why": "repro report at --workers 1 with no store: the kernel's "
               "observed loop (a MetricsRegistry is always attached) "
               "dominates",
        "loads": ["cli", "sim.runner", "sim.kernel", "sim.transitions",
                  "sim.rng", "sched", "obs.metrics"],
        "unmoved": ["parallel", "store", "checker", "obs.journal"],
    },
    "sweep-sharded": {
        "why": "supervised --workers 2 sweeps of many small shards into "
               "a cold store, then again warm: spawn, shard IPC, merge, "
               "journal stitching and store I/O dominate",
        "loads": ["cli", "parallel", "store", "obs.journal",
                  "obs.metrics", "spec", "sim.rng", "sim.kernel"],
        "unmoved": ["checker", "ir"],
    },
    "verify-statespace": {
        "why": "repro verify under fixed --max-states budgets: the "
               "checker and the IR lowering do all the work",
        "loads": ["cli", "checker", "ir"],
        "unmoved": ["sim.kernel", "parallel", "store", "obs.journal"],
    },
}

# sweep-serial cells: (protocol, inputs, scheduler, memory, runs).  Run
# counts give each command roughly the same kernel time on a 2-CPU
# x86-64 host, so no single cell dominates the cycle.
SERIAL_CELLS: Tuple[Tuple[str, str, str, str, int], ...] = (
    ("two", "a,b", "random", "atomic", 3000),
    ("two", "a,b", "split-vote", "atomic", 3000),
    ("three-unbounded", "a,b,a", "random", "atomic", 800),
    ("three-unbounded", "a,b,a", "split-vote", "atomic", 1200),
    ("three-bounded", "a,b,a", "random", "atomic", 350),
    ("three-bounded", "a,b,a", "split-vote", "atomic", 1200),
    ("n", "a,b,a,b", "random", "atomic", 400),
    ("n", "a,b,a,b", "split-vote", "atomic", 600),
    ("two", "a,b", "random", "regular", 2400),
)

# sweep-sharded cells: (protocol, inputs, runs, shard size).  Each is
# run cold into an empty store, then warm from it.  Four shards each
# keep a cold pass near one second, so a run repeats it several times
# and its fastest repeat is a steady figure; VERIFY_CELLS budgets are
# sized the same way.
SHARDED_CELLS: Tuple[Tuple[str, str, int, int], ...] = (
    ("two", "a,b", 1000, 250),
    ("three-unbounded", "a,b,a", 400, 100),
)

# verify-statespace cells: (protocol, input rotations, engine, budget).
# The seed picks one rotation of each cell's inputs; the checker itself
# has no randomness, so every variant has a recorded expectation.
VERIFY_CELLS: Tuple[Tuple[str, Tuple[str, ...], Optional[str], int], ...] = (
    ("three-bounded", ("a,b,b", "b,a,b", "b,b,a"), "fingerprints", 150_000),
    ("n", ("a,b,a,b", "b,a,b,a"), "fingerprints", 150_000),
    ("three-bounded", ("a,b,a", "b,a,a", "a,a,b"), None, 10_000),
)


@dataclasses.dataclass
class Command:
    """One generated ``python -m repro`` command.

    ``key`` names its expected result in ``expected.json``: the cold
    and warm passes of one sharded sweep share a key, because they
    must print the same result.  ``slot`` is the command's position in
    the workload cycle; times are pooled per slot.
    """

    key: str
    argv: List[str]
    slot: int
    kind: str  # "sweep" or "verify"
    role: str = ""  # "cold" / "warm" for sharded sweeps
    runs: int = 0
    json_path: Optional[str] = None
    journal_path: Optional[str] = None


@dataclasses.dataclass
class Outcome:
    """What one executed command did and whether it passed its checks."""

    command: Command
    wall_s: float
    cpu_s: float
    rc: int
    maxrss_kb: int
    fingerprint: str = ""
    runs: int = 0
    states: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def command_seed(seed: int, slot: int) -> int:
    """The ``--seed`` the program receives for one slot of the cycle."""
    return seed * 100 + slot


def cycle(workload: str, seed: int, work: str,
          unit: bool = False) -> List[Command]:
    """The commands of one cycle of ``workload``.

    ``work`` is a fresh directory for this cycle's files (JSON records,
    store, journals).  ``unit=True`` gives the unit-size variant of
    every command (``--runs 1`` or ``--max-states 1``) that ``setup_s``
    times.
    """
    cmds: List[Command] = []
    if workload == "sweep-serial":
        for slot, (proto, inputs, sched, memory, runs) in \
                enumerate(SERIAL_CELLS):
            n = 1 if unit else runs
            s = command_seed(seed, slot)
            json_path = os.path.join(work, f"s{slot}.json")
            argv = ["report", "--protocol", proto, "--inputs", inputs,
                    "--scheduler", sched, "--runs", str(n),
                    "--seed", str(s), "--json", json_path]
            if memory != "atomic":
                argv += ["--memory", memory]
            cmds.append(Command(
                key=f"{workload}|{proto}|{inputs}|{sched}|{memory}"
                    f"|runs={n}|seed={s}",
                argv=argv, slot=slot, kind="sweep", runs=n,
                json_path=json_path))
    elif workload == "sweep-sharded":
        for i, (proto, inputs, runs, shard) in enumerate(SHARDED_CELLS):
            n = 1 if unit else runs
            s = command_seed(seed, i)
            store = os.path.join(work, f"store{i}")
            for j, role in enumerate(("cold", "warm")):
                json_path = os.path.join(work, f"s{i}{role}.json")
                journal = os.path.join(work, f"s{i}{role}.jsonl")
                argv = ["report", "--protocol", proto, "--inputs", inputs,
                        "--runs", str(n), "--shard-size", str(shard),
                        "--seed", str(s), "--workers", "2", "--supervised",
                        "--store", store, "--journal", journal,
                        "--json", json_path]
                cmds.append(Command(
                    key=f"{workload}|{proto}|{inputs}|runs={n}"
                        f"|shard={shard}|seed={s}",
                    argv=argv, slot=2 * i + j, kind="sweep", role=role,
                    runs=n, json_path=json_path, journal_path=journal))
    elif workload == "verify-statespace":
        for slot, (proto, rotations, engine, budget) in \
                enumerate(VERIFY_CELLS):
            inputs = rotations[seed % len(rotations)]
            n = 1 if unit else budget
            argv = ["verify", "--protocol", proto, "--inputs", inputs,
                    "--max-states", str(n)]
            if engine is not None:
                argv += ["--engine", engine]
            cmds.append(Command(
                key=f"{workload}|{proto}|{inputs}|{engine or 'default'}"
                    f"|max_states={n}",
                argv=argv, slot=slot, kind="verify"))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    return cmds


def child_env() -> Dict[str, str]:
    """Environment for a program command: the checkout's ``src`` first,
    and one OpenBLAS thread.  The program does no BLAS work, but at
    ``import numpy`` OpenBLAS starts a thread per CPU that spins idle
    for about 0.1 s of CPU time, and that time swings with host load."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


PR_SET_CHILD_SUBREAPER = 36
# Seconds a finished command's leftover descendants (a multiprocessing
# resource tracker, say) get to exit on their own before they are killed.
REAP_GRACE_S = 10.0


def become_subreaper() -> None:
    """Adopt orphaned descendants, so that a process a command leaves
    behind becomes this process's child and can be waited for.  Linux
    only; elsewhere a no-op."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    """Live child processes of this process, read from ``/proc``."""
    me, pids = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def reap_children(grace: float = REAP_GRACE_S) -> None:
    """Wait until this process has no children left.  Those still
    running after ``grace`` seconds are killed, then waited for."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.002)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def stop_everything() -> None:
    """Stop every process this one started: the multiprocessing
    resource tracker an in-process sharded run leaves, then any other
    child, adopted orphans included."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, OSError):
        pass
    reap_children()


def execute(cmd: Command, work: str) -> Tuple[float, float, int, int, str]:
    """Run one command; returns ``(wall_s, cpu_s, rc, maxrss_kb, stdout)``.

    Wall time runs from process start to exit.  ``os.wait4`` reaps the
    child and gives its CPU time (user plus system) and peak resident
    set; on Linux both cover the worker processes it waited for too.
    The command runs in a process group of its own; once it has exited,
    its leftover descendants are waited for (killed after a grace
    period), so no command outlives its turn.
    """
    out_path = os.path.join(work, "stdout.txt")
    with open(out_path, "w") as out, open(os.devnull, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "repro", *cmd.argv],
                                stdout=out, stderr=err, cwd=ROOT,
                                env=child_env(), start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            reap_children()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, proc.returncode, usage.ru_maxrss, stdout


_EXPLORED = re.compile(r"explored: (\d+) configurations, (\d+) edges")
_BUDGETED = re.compile(r"up to depth \d+ \((\d+) configurations\)")
_FROM_CACHE = re.compile(r"runs:\s+(\d+) from cache, (\d+) executed")


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check(cmd: Command, rc: int, stdout: str,
          expected: Optional[str]) -> Tuple[str, int, int, str]:
    """Check one command's output.

    Returns ``(fingerprint, runs, states, error)``; ``error`` is empty
    when every check passed.  For a sweep, ``states`` counts simulated
    steps (each step visits one configuration) and the fingerprint is
    the SHA-256 of its ``--json`` record (run statistics plus metrics
    snapshot) and of its journal; for a verify, it is the verdict with
    the visited and edge counts.
    """
    if rc != 0:
        return "", 0, 0, f"exit code {rc}"
    if cmd.kind == "sweep":
        with open(cmd.json_path) as fh:
            record = json.load(fh)["records"][0]
        metrics = record["metrics"]
        digest = hashlib.sha256(
            json.dumps(record, sort_keys=True).encode())
        if cmd.journal_path is not None:
            digest.update(_sha256_file(cmd.journal_path).encode())
        fingerprint = digest.hexdigest()
        runs = metrics["n_runs"]
        states = metrics["observability"]["counters"]["steps"]
        if metrics["consistency_violations"] or \
                metrics["nontriviality_violations"]:
            return fingerprint, runs, states, "safety violation"
        if runs != cmd.runs:
            return fingerprint, runs, states, f"{runs} of {cmd.runs} runs"
        if "QUARANTINED" in stdout:
            return fingerprint, runs, states, "quarantined shard"
        if cmd.role == "warm":
            m = _FROM_CACHE.search(stdout)
            if m is None or int(m.group(2)) != 0:
                return fingerprint, runs, states, \
                    "warm pass executed runs"
    else:
        verdict = ("ok" if "safety (consistency + nontriviality) holds"
                   in stdout else "violation")
        m = _EXPLORED.search(stdout)
        if m is not None:
            states, edges = int(m.group(1)), int(m.group(2))
        else:
            m = _BUDGETED.search(stdout)
            states, edges = (int(m.group(1)) if m else 0), -1
        fingerprint = f"{verdict} visited={states} edges={edges}"
        runs = 1
        if verdict != "ok":
            return fingerprint, runs, states, "safety violation"
    if expected is not None and fingerprint != expected:
        return fingerprint, runs, states, \
            f"fingerprint {fingerprint[:40]} != recorded {expected[:40]}"
    return fingerprint, runs, states, ""


def load_expected() -> Dict[str, str]:
    if not os.path.exists(EXPECTED_PATH):
        return {}
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def run_checked(cmd: Command, work: str,
                expected: Dict[str, str]) -> Outcome:
    """Execute ``cmd`` and check its output against ``expected``."""
    wall, cpu, rc, maxrss, stdout = execute(cmd, work)
    outcome = Outcome(cmd, wall, cpu, rc, maxrss)
    try:
        (outcome.fingerprint, outcome.runs, outcome.states,
         outcome.error) = check(cmd, rc, stdout, expected.get(cmd.key))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        outcome.error = f"unreadable output: {exc!r}"
    return outcome


def mark_unrepeatable(outcomes: List[Outcome]) -> None:
    """Fail each outcome whose fingerprint differs from an earlier
    outcome of the same key: a seeded command must repeat exactly."""
    seen: Dict[str, str] = {}
    for o in outcomes:
        if o.fingerprint and \
                seen.setdefault(o.command.key, o.fingerprint) != o.fingerprint:
            o.error = o.error or "output differs from an earlier repeat"


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
