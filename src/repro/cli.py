"""Command-line interface: ``python -m repro <command>``.

Subcommands map one-to-one onto the library's main entry points:

* ``solve``          — run one consensus instance and print the outcome;
* ``verify``         — exhaustive safety verification over all
  schedules × coin outcomes;
* ``impossibility``  — run the Theorem 4 pipeline over the
  deterministic zoo (or one member) and print the certificates;
* ``game``           — solve the two-processor scheduling game exactly
  and print worst-case expected costs;
* ``tower``          — grade the Lamport register construction tower;
* ``report``         — run an instrumented Monte-Carlo batch and print
  its observability metrics (or replay a saved journal);
* ``trace``          — re-execute one seeded run with the span tracer
  attached and print its deterministic span tree;
* ``top``            — follow a sweep's live telemetry file (one row
  per shard: progress, steps/s, ETA, tail percentiles);
* ``journal verify`` — check a JSONL journal for truncation or damage;
* ``store``          — inspect, checksum-verify, or garbage-collect a
  content-addressed run store (``ls``/``show``/``verify``/``gc``; see
  docs/STORE.md).

Every ``--engine`` flag below validates through the engine registry
(:mod:`repro.engines`): the accepted vocabulary, the default, and the
did-you-mean error for typos all come from the registry rather than
per-command hardcoded lists.

Examples::

    python -m repro solve --protocol three-bounded --inputs a,b,b --trace
    python -m repro solve --inputs a,b --metrics --journal run.jsonl
    python -m repro solve --inputs a,b --memory regular --seed 3
    python -m repro verify --protocol two --inputs a,b
    python -m repro verify --inputs a,b --memory safe
    python -m repro impossibility
    python -m repro game --cost processor:0
    python -m repro tower --seeds 20
    python -m repro report --protocol two --runs 5000
    python -m repro report --runs 100000 --workers 8 --telemetry top.jsonl
    python -m repro report --runs 100000 --store runs/ --workers 8
    python -m repro report --runs 100000 --store runs/ --resume
    python -m repro report --runs 100000 --workers 8 --supervised \
        --shard-timeout 300 --max-retries 2 --on-fault degrade
    python -m repro report --from-journal run.jsonl
    python -m repro report --runs 200 --profile --folded profile.folded
    python -m repro trace --seed 42 --index 7
    python -m repro top top.jsonl --follow
    python -m repro journal verify run.jsonl
    python -m repro store ls runs/
    python -m repro store show runs/ 260585
    python -m repro store verify runs/
    python -m repro store gc runs/ --keep 260585 --dry-run
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence


def _engine_argument(parser: argparse.ArgumentParser, kind: str,
                     detail: str) -> None:
    """Add a registry-driven ``--engine`` flag for one engine kind.

    The accepted names, the advertised default, and the rejection
    message (with its did-you-mean suggestion) all come from
    :mod:`repro.engines` — the CLI holds no engine vocabulary of its
    own.
    """
    from repro.engines import default_engine, engine_names

    def validate(name: str) -> str:
        from repro.engines import UnknownEngineError, resolve_engine

        try:
            return resolve_engine(kind, name).name
        except UnknownEngineError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    parser.add_argument(
        "--engine", default=None, type=validate,
        metavar="{" + ",".join(engine_names(kind)) + "}",
        help=(f"{detail} (default: "
              f"{default_engine(kind).name})"))


def _build_protocol(name: str, n_inputs: int):
    from repro.parallel.tasks import PROTOCOL_NAMES, ProtocolSpec

    if name not in PROTOCOL_NAMES:
        raise SystemExit(f"unknown protocol {name!r}")
    return ProtocolSpec(name, n_inputs)()


def _build_scheduler(name: str, seed: int, memory: str = "atomic",
                     read_policy: Optional[str] = None):
    from repro.sched import (
        LaggardFreezer,
        ObliviousScheduler,
        RandomScheduler,
        ReadValueAdversary,
        RoundRobinScheduler,
        SplitVoteAdversary,
    )
    from repro.sim.rng import ReplayableRng

    rng = ReplayableRng(seed).child("cli-sched")
    table = {
        "random": lambda: RandomScheduler(rng),
        "round-robin": lambda: RoundRobinScheduler(),
        "oblivious": lambda: ObliviousScheduler(rng),
        "split-vote": lambda: SplitVoteAdversary(),
        "laggard-freezer": lambda: LaggardFreezer(),
    }
    if name not in table:
        raise SystemExit(f"unknown scheduler {name!r}")
    scheduler = table[name]()
    if memory != "atomic":
        # Weak registers put read-value choice in adversary hands; the
        # CLI default is the hostile policy (that is the interesting
        # experiment), overridable with --read-policy.
        policy = read_policy or "adversarial"
        scheduler = ReadValueAdversary(
            scheduler, policy=policy,
            rng=ReplayableRng(seed).child("cli-read-values"),
        )
    elif read_policy is not None:
        raise SystemExit("--read-policy needs --memory regular|safe "
                         "(atomic reads have exactly one legal value)")
    return scheduler


def _solve_sinks(args: argparse.Namespace):
    """Build the (metrics, journal, sinks) triple a command asked for."""
    from repro.obs import JsonlJournal, MetricsRegistry

    metrics = MetricsRegistry() if getattr(args, "metrics", False) else None
    journal = (JsonlJournal(args.journal,
                            memory=getattr(args, "memory", "atomic"))
               if getattr(args, "journal", None) else None)
    sinks = tuple(s for s in (metrics, journal) if s is not None)
    return metrics, journal, sinks


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.core.consensus import solve

    inputs = args.inputs.split(",")
    protocol = _build_protocol(args.protocol, len(inputs))
    if protocol.n_processes != len(inputs):
        raise SystemExit(
            f"{args.protocol} needs {protocol.n_processes} inputs, "
            f"got {len(inputs)}"
        )
    scheduler = _build_scheduler(args.scheduler, args.seed,
                                 memory=args.memory,
                                 read_policy=args.read_policy)
    metrics, journal, sinks = _solve_sinks(args)
    outcome = solve(protocol, inputs, scheduler=scheduler, seed=args.seed,
                    max_steps=args.max_steps, record_trace=args.trace,
                    sinks=sinks, memory=args.memory, engine=args.engine)
    if journal is not None:
        journal.close()
    print(f"protocol:   {protocol.name}")
    print(f"inputs:     {inputs}")
    print(f"scheduler:  {args.scheduler} (seed {args.seed})")
    if args.memory != "atomic":
        policy = args.read_policy or "adversarial"
        print(f"memory:     {args.memory} registers "
              f"(read policy: {policy})")
    print(f"agreed on:  {outcome.value!r}")
    print(f"decisions:  {outcome.decisions}")
    print(f"steps:      {outcome.steps} total, "
          f"{outcome.steps_per_processor} per processor")
    print(f"consistent: {outcome.consistent}   "
          f"nontrivial: {outcome.nontrivial}")
    if args.trace and outcome.trace is not None:
        print("\ntrace:")
        if args.diagram:
            from repro.sim.viz import render_space_time

            print(render_space_time(outcome.trace, protocol.n_processes,
                                    limit=args.trace_limit))
        else:
            print(outcome.trace.render(limit=args.trace_limit))
    if metrics is not None:
        print("\nmetrics:")
        print(metrics.render())
    if journal is not None:
        print(f"\njournal:    {args.journal} "
              f"({journal.events_written} events)")
    return 0 if outcome.consistent and outcome.nontrivial else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.checker import verify_safety

    inputs = args.inputs.split(",")
    protocol = _build_protocol(args.protocol, len(inputs))
    if args.engine == "fingerprints":
        from repro.checker.statespace import explore_fast

        rep = explore_fast(
            protocol, inputs, memory=args.memory, max_depth=args.depth,
            max_states=args.max_states, symmetry=args.symmetry,
            por=args.por, exact=args.exact,
            telemetry_path=args.telemetry,
        )
        print(f"protocol: {protocol.name}, inputs {inputs}")
        print(f"explored: {rep.visited} configurations, {rep.edges} "
              f"edges, depth {rep.depth} "
              f"({rep.states_per_sec:,.0f} states/sec"
              + (", exact visited set" if rep.exact else "") + ")")
        if args.symmetry:
            note = f" ({rep.symmetry_note})" if rep.symmetry_note else ""
            print(f"symmetry: group order {rep.symmetry_order}{note}")
        if args.por:
            if rep.por:
                print(f"por:      {rep.pruned} sleep-pruned expansions")
            else:
                print(f"por:      {rep.por_note}")
        if args.memory != "atomic":
            print(f"memory:   {args.memory} registers (adversary also "
                  f"chooses contended read values)")
        print(rep.guarantee())
        if not rep.ok:
            print(f"witness configuration: {rep.witness}")
        return 0 if rep.ok else 1
    if args.symmetry or args.por or args.exact or args.telemetry:
        print("error: --symmetry/--por/--exact/--telemetry "
              "require --engine fingerprints")
        return 2
    report = verify_safety(protocol, inputs, max_depth=args.depth,
                           max_states=args.max_states, memory=args.memory,
                           engine=args.engine)
    print(f"protocol: {protocol.name}, inputs {inputs}")
    if args.memory != "atomic":
        print(f"memory:   {args.memory} registers (adversary also "
              f"chooses contended read values)")
    print(report.guarantee())
    if not report.ok:
        print(f"witness configuration: {report.witness}")
    if args.memory != "atomic":
        # Weak semantics: additionally exhibit (and replay) the
        # strongest anomaly the semantics admits, if any — a
        # consistency violation, or a garbage read no regular register
        # could produce (safe-only behavior).
        from repro.checker import find_memory_anomaly, replay_witness

        witness = find_memory_anomaly(
            protocol, inputs, memory=args.memory,
            max_depth=args.depth, max_states=args.max_states,
        )
        if witness is None:
            print(f"no {args.memory}-memory anomaly within the "
                  f"explored space")
        else:
            print()
            print(witness.describe())
            final = replay_witness(protocol, inputs, args.memory,
                                   witness.steps)
            print(f"witness replays: final decisions "
                  f"{final.decisions(protocol)}")
    return 0 if report.ok else 1


def _cmd_impossibility(args: argparse.Namespace) -> int:
    from repro.checker import analyze_deterministic
    from repro.core import deterministic as det

    if args.protocol == "all":
        protocols = det.zoo()
    else:
        factory = getattr(det, args.protocol.replace("-", "_"), None)
        if factory is None:
            raise SystemExit(f"unknown zoo member {args.protocol!r}")
        protocols = (factory(),)
    for p in protocols:
        print(analyze_deterministic(p).render())
        print()
    return 0


def _cmd_game(args: argparse.Namespace) -> int:
    from repro.core import TwoProcessProtocol
    from repro.sched.optimal import solve_game

    inputs = tuple(args.inputs.split(","))
    sol = solve_game(TwoProcessProtocol(), inputs, cost_model=args.cost)
    print(f"two-processor protocol, inputs {inputs}")
    print(f"cost model:              {sol.cost_model}")
    print(f"worst-case expected cost {sol.value:.6f}")
    print(f"configurations:          {len(sol.values)}")
    print(f"value-iteration sweeps:  {sol.iterations}")
    print("(the paper's corollary bound is 10 per processor — "
          "the optimal adversary achieves it exactly)")
    return 0


def _cmd_tower(args: argparse.Namespace) -> int:
    from repro.registers import run_register_workload

    levels = (
        ("safe-cell", {}),
        ("regular-cell", {}),
        ("atomic-cell", {}),
        ("regular-from-safe", {}),
        ("unary-regular", {}),
        ("srsw-atomic", {"n_readers": 1}),
        ("mrsw-atomic", {"n_readers": 3, "n_reads": 6}),
    )
    order = {"broken": 0, "safe": 1, "regular": 2, "atomic": 3}
    print(f"{'level':<20} {'worst grade':<12} {'events/op':>10}")
    for level, kw in levels:
        worst, cost = "atomic", 0.0
        for seed in range(args.seeds):
            r = run_register_workload(level, seed=seed, **kw)
            if order[r.grade()] < order[worst]:
                worst = r.grade()
            cost += r.events_per_op
        print(f"{level:<20} {worst:<12} {cost / args.seeds:>10.1f}")
    return 0


def _print_histogram(name: str, hist) -> None:
    """Full distribution of one histogram, with proportional bars."""
    if not hist.total:
        return
    print(f"\n{name} (n={hist.total}, mean={hist.mean:.2f}, "
          f"p50={hist.p50}, p90={hist.p90}, p99={hist.p99}):")
    peak = max(hist.counts.values())
    for value in sorted(hist.counts):
        count = hist.counts[value]
        bar = "#" * max(1, round(40 * count / peak))
        print(f"  {value:>5}  {count:>8}  {bar}")


def _print_report(metrics, title: str) -> None:
    print(title)
    print()
    print(metrics.render())
    for name in ("steps_to_decide", "coin_flips_per_decision", "num_depth"):
        hist = metrics.histograms.get(name)
        if hist is not None:
            _print_histogram(name, hist)


def _write_prometheus(metrics, path: str) -> None:
    from repro.obs import prometheus_text

    with open(path, "w") as fh:
        fh.write(prometheus_text(metrics))
    print(f"prometheus: {path}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Tracer, render_span_tree

    if args.from_journal:
        from repro.obs import iter_spans
        from repro.obs.tracing import Span

        spans = [Span.from_dict(d) for d in iter_spans(args.from_journal)]
        if args.trace_id:
            spans = [s for s in spans if s.trace_id == args.trace_id]
        if not spans:
            print("(no spans in journal — schema v3 with a tracer "
                  "attached writes them)")
            return 1
        print(render_span_tree(spans))
        return 0

    import time

    from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                      SchedulerSpec)
    from repro.sim.runner import ExperimentRunner

    inputs = tuple(args.inputs.split(","))
    tracer = Tracer(clock=time.perf_counter if args.wall else None,
                    max_spans=args.max_spans)
    runner = ExperimentRunner(
        protocol_factory=ProtocolSpec(args.protocol, len(inputs)),
        scheduler_factory=SchedulerSpec(args.scheduler),
        inputs_factory=ConstantInputs(inputs),
        seed=args.seed,
        sinks=(tracer,),
        memory=args.memory,
        engine=args.engine,
    )
    runner.run_one(args.index, args.max_steps)
    spans = tracer.trace()
    print(f"trace {spans[0].trace_id}  "
          f"(root_seed={args.seed}, run_index={args.index})")
    print(render_span_tree(spans))
    if args.otlp:
        from repro.obs.export import otlp_json_text

        with open(args.otlp, "w") as fh:
            fh.write(otlp_json_text(spans=spans))
        print(f"otlp: {args.otlp}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import os
    import time

    from repro.obs.telemetry import (latest_by_shard, read_fault_events,
                                     read_telemetry, render_top)

    def load():
        if not os.path.exists(args.path):
            return [], None
        beats = read_telemetry(args.path)
        # A supervised sweep interleaves fault records; their presence
        # turns on the faults column.  Plain sweeps render unchanged.
        events = read_fault_events(args.path)
        return beats, (events if events else None)

    if not args.follow:
        beats, events = load()
        print(render_top(beats, events))
        return 0
    try:
        while True:
            beats, events = load()
            # Clear-and-home keeps one live table, top(1)-style.
            print("\x1b[2J\x1b[H", end="")
            print(f"repro top — {args.path}")
            print(render_top(beats, events))
            latest = latest_by_shard(beats)
            if latest and all(b.done for b in latest.values()):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import RunStore, StoreError

    try:
        store = RunStore(args.root)
        if args.store_command == "ls":
            entries = store.ls()
            if not entries:
                print("(empty store)")
                return 0
            for e in entries:
                seeds = ",".join(map(str, e.seeds))
                print(f"{e.spec_hash[:12]}  {e.n_shards:>4} shards  "
                      f"{e.n_runs:>8} runs  {e.bytes:>10} B  "
                      f"seeds={seeds}  {e.describe}")
            return 0
        if args.store_command == "show":
            import json

            print(json.dumps(store.show(args.spec_hash), indent=2,
                             sort_keys=True))
            return 0
        if args.store_command == "verify":
            verdicts = store.verify(args.spec_hash)
            if not verdicts:
                print("(no committed shards)")
                return 0
            bad = 0
            for v in verdicts:
                if v.ok:
                    print(f"ok   {v.path}  {v.detail}")
                else:
                    bad += 1
                    print(f"BAD  {v.path}")
                    print(f"     {v.detail}")
            print(f"{len(verdicts)} shards checked, {bad} damaged"
                  + ("" if not bad else " (a healing resume — rerun "
                     "the sweep with --store — will quarantine and "
                     "recompute them)"))
            return 0 if not bad else 1
        # gc
        keep = args.keep.split(",") if args.keep else None
        removed = store.gc(keep=keep, dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        if not removed:
            print(f"{verb}: nothing")
        for path in removed:
            print(f"{verb}: {path}")
        return 0
    except StoreError as exc:
        raise SystemExit(str(exc))


def _cmd_journal_verify(args: argparse.Namespace) -> int:
    from repro.obs import verify_journal

    verdict = verify_journal(args.path)
    print(verdict.render())
    return 0 if verdict.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry

    if args.from_journal:
        from repro.obs import replay_journal

        metrics = replay_journal(args.from_journal)
        _print_report(metrics, f"replayed journal: {args.from_journal}")
        if args.prometheus:
            _write_prometheus(metrics, args.prometheus)
        return 0

    from repro.parallel.tasks import (ConstantInputs, ProtocolSpec,
                                      SchedulerSpec)
    from repro.sim.runner import ExperimentRunner

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    supervise = (args.supervised or args.shard_timeout is not None
                 or args.max_retries is not None
                 or args.on_fault is not None)
    policy = None
    if supervise:
        from repro.parallel.supervisor import SupervisorPolicy

        kwargs = {}
        if args.shard_timeout is not None:
            kwargs["shard_timeout"] = args.shard_timeout
        if args.max_retries is not None:
            kwargs["max_retries"] = args.max_retries
        if args.on_fault is not None:
            kwargs["on_fault"] = args.on_fault
        try:
            policy = SupervisorPolicy(**kwargs)
        except ValueError as exc:
            raise SystemExit(str(exc))
    if args.profile and (args.workers > 1 or supervise):
        raise SystemExit("--profile needs --workers 1 "
                         "(wall-clock phases cannot be attributed "
                         "across worker processes, which supervised "
                         "batches always use)")
    if args.folded and not args.profile:
        raise SystemExit("--folded needs --profile (it exports the "
                         "profiler's component attribution)")
    if args.resume and not args.store:
        raise SystemExit("--resume needs --store (it resumes from that "
                         "store's committed shards)")
    store = None
    if args.store:
        from repro.store import RunStore

        store = RunStore(args.store)

    inputs = tuple(args.inputs.split(","))
    protocol_name = args.protocol
    metrics = MetricsRegistry()
    profiler = None
    if args.profile:
        from repro.obs import TimeAttributionProfiler

        profiler = TimeAttributionProfiler(
            (protocol_name, args.scheduler, args.memory))
    sinks = (metrics,) if profiler is None else (metrics, profiler)
    if args.resume:
        # Refuse to silently restart from scratch: the exact content
        # address this sweep will run under must already hold shards.
        from repro.spec import ObsOptions, RunSpec

        probe = RunSpec(
            protocol=ProtocolSpec(protocol_name, len(inputs)),
            scheduler=SchedulerSpec(args.scheduler),
            inputs=ConstantInputs(inputs),
            memory=args.memory,
            engine=args.engine,
            max_steps=args.max_steps,
            obs=ObsOptions(metrics=True,
                           journal=args.journal is not None),
        )
        probe_hash = probe.spec_hash()
        if not any(e.spec_hash == probe_hash and args.seed in e.seeds
                   for e in store.ls()):
            raise SystemExit(
                f"--resume found no committed shards in {args.store!r} "
                f"for this sweep (spec {probe_hash[:12]}…, seed "
                f"{args.seed}); check the sweep parameters, or drop "
                f"--resume to start it from scratch")

    runner = ExperimentRunner(
        protocol_factory=ProtocolSpec(protocol_name, len(inputs)),
        scheduler_factory=SchedulerSpec(args.scheduler),
        inputs_factory=ConstantInputs(inputs),
        seed=args.seed,
        sinks=sinks,
        memory=args.memory,
        engine=args.engine,
    )
    stats = runner.run_many(
        args.runs,
        max_steps=args.max_steps,
        workers=args.workers,
        shard_size=args.shard_size,
        journal_path=args.journal,
        telemetry_path=args.telemetry,
        store=store,
        policy=policy,
    )

    sharded = (f", {args.workers} workers"
               if args.workers > 1 else "")
    if supervise:
        sharded += ", supervised"
    _print_report(
        metrics,
        f"{args.runs} runs of {protocol_name!r} on inputs {args.inputs} "
        f"under {args.scheduler!r} (seed {args.seed}{sharded})",
    )
    if profiler is not None:
        print("\nphase timing:")
        print(profiler.render_phases())
        print("\ntime attribution:")
        print(profiler.render())
        if args.folded:
            from repro.obs import folded_stacks

            with open(args.folded, "w") as fh:
                fh.write(folded_stacks(profiler.stacks()))
            print(f"folded stacks: {args.folded}")
    if args.prometheus:
        _write_prometheus(metrics, args.prometheus)
    if stats.journal_path is not None:
        print(f"\njournal: {stats.journal_path} "
              f"({stats.journal_events} events)")
    if stats.store is not None:
        acct = stats.store
        print(f"\nstore: {args.store} (spec {acct.spec_hash[:12]})")
        print(f"  shards: {acct.hits} from cache, {acct.misses} executed")
        print(f"  runs:   {acct.runs_from_cache} from cache, "
              f"{acct.runs_executed} executed")
    if stats.faults is not None:
        rep = stats.faults
        print(f"\nsupervisor: {rep.n_faults} faults absorbed "
              f"({rep.n_retries} retries, {rep.n_degradations} "
              f"degradations, {len(rep.healed)} healed shard files)")
        for kind, n in sorted(rep.counts().items()):
            print(f"  {kind}: {n}")
        for event in rep.events:
            where = (f"shard {event.shard} attempt {event.attempt}"
                     if event.shard >= 0 else "resume preamble")
            print(f"  {where}: {event.kind} -> {event.action}")
        if not rep.ok:
            ranges = ", ".join(f"[{a}, {b})"
                               for a, b in rep.quarantined_ranges())
            print(f"  QUARANTINED run ranges (missing from results): "
                  f"{ranges}")
    if args.telemetry:
        print(f"telemetry: {args.telemetry}")
    if args.json:
        from repro.analysis.reporting import dump_records, record_batch

        record = record_batch(
            experiment="cli_report",
            protocol=protocol_name,
            scheduler=args.scheduler,
            inputs=args.inputs,
            seed=args.seed,
            stats=stats,
        )
        dump_records([record], path=args.json)
        print(f"json record: {args.json}")
    violations = stats.n_consistency_violations
    quarantined = stats.faults is not None and not stats.faults.ok
    return 0 if violations == 0 and not quarantined else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Chor-Israeli-Li (PODC 1987) reproduction: "
                     "randomized wait-free consensus with atomic "
                     "read/write registers."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one consensus instance")
    p.add_argument("--protocol", default="two",
                   choices=["two", "three-unbounded", "three-bounded",
                            "n", "naive"])
    p.add_argument("--inputs", default="a,b",
                   help="comma-separated input values, one per processor")
    p.add_argument("--scheduler", default="random",
                   choices=["random", "round-robin", "oblivious",
                            "split-vote", "laggard-freezer"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--diagram", action="store_true",
                   help="render the trace as a space-time diagram")
    p.add_argument("--trace-limit", type=int, default=40)
    p.add_argument("--metrics", action="store_true",
                   help="attach a metrics registry and print it")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="stream a JSONL event journal to PATH")
    p.add_argument("--memory", default="atomic",
                   choices=["atomic", "regular", "safe"],
                   help="register semantics the run executes under "
                        "(see docs/MODEL.md)")
    _engine_argument(p, "sim",
                     "execution backend; 'vector' runs the compiled "
                     "table IR — see docs/IR.md")
    p.add_argument("--read-policy", default=None,
                   choices=["commit", "adversarial", "random"],
                   help="how the adversary resolves weak-memory reads "
                        "(default adversarial; needs --memory "
                        "regular|safe)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="exhaustive safety verification")
    p.add_argument("--protocol", default="two",
                   choices=["two", "three-unbounded", "three-bounded",
                            "n", "naive"])
    p.add_argument("--inputs", default="a,b")
    p.add_argument("--depth", type=int, default=None,
                   help="depth budget (omit for full exploration)")
    p.add_argument("--max-states", type=int, default=500_000)
    p.add_argument("--memory", default="atomic",
                   choices=["atomic", "regular", "safe"],
                   help="register semantics to verify under; weak "
                        "semantics also search for an anomaly witness")
    _engine_argument(p, "checker",
                     "explorer backend: 'objects' builds the "
                     "configuration graph; 'fingerprints' runs the "
                     "scalable fingerprinted search (docs/CHECKER.md) "
                     "— identical verdict either way")
    p.add_argument("--symmetry", action="store_true",
                   help="canonicalize over the verified processor-"
                        "permutation group before fingerprinting "
                        "(engine fingerprints only)")
    p.add_argument("--por", action="store_true",
                   help="sleep-set partial-order reduction; auto-"
                        "disabled (with a note) under depth budgets, "
                        "weak memory, or --symmetry (engine "
                        "fingerprints only)")
    p.add_argument("--exact", action="store_true",
                   help="store packed state vectors instead of 64-bit "
                        "fingerprints: no collision risk, more memory "
                        "(engine fingerprints only)")
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="stream exploration heartbeats to this JSONL "
                        "file ('repro top --telemetry PATH' follows "
                        "them live; engine fingerprints only)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("impossibility",
                       help="Theorem 4 certificates for deterministic "
                            "protocols")
    p.add_argument("--protocol", default="all",
                   help="zoo member (obstinate, mirror, priority, "
                        "greedy-min) or 'all'")
    p.set_defaults(func=_cmd_impossibility)

    p = sub.add_parser("game",
                       help="solve the two-processor scheduling game")
    p.add_argument("--inputs", default="a,b")
    p.add_argument("--cost", default="processor:0",
                   help="'processor:<pid>' or 'total'")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("tower", help="grade the register constructions")
    p.add_argument("--seeds", type=int, default=15)
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser(
        "report",
        help="instrumented Monte-Carlo batch with metrics report")
    p.add_argument("--protocol", default="two",
                   choices=["two", "three-unbounded", "three-bounded",
                            "n", "naive"])
    p.add_argument("--inputs", default="a,b",
                   help="comma-separated input values, one per processor")
    p.add_argument("--scheduler", default="random",
                   choices=["random", "round-robin", "oblivious",
                            "split-vote", "laggard-freezer",
                            "read-adversary"])
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=4000)
    p.add_argument("--workers", type=int, default=1,
                   help="shard the batch across N worker processes "
                        "(results are bit-identical at any N)")
    p.add_argument("--shard-size", type=int, default=None,
                   help="runs per shard (default: one shard per worker)")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="stream a JSONL event journal to PATH")
    p.add_argument("--from-journal", metavar="PATH", default=None,
                   help="skip running; replay PATH into the metrics report")
    p.add_argument("--memory", default="atomic",
                   choices=["atomic", "regular", "safe"],
                   help="register semantics every run executes under")
    _engine_argument(p, "sim",
                     "execution backend; 'vector' steps the whole "
                     "batch in lockstep through the compiled table IR "
                     "— see docs/IR.md")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="content-addressed run store: shards already "
                        "committed for this exact sweep are loaded "
                        "instead of executed, finished shards are "
                        "committed as they complete (docs/STORE.md)")
    p.add_argument("--resume", action="store_true",
                   help="with --store: expect prior committed shards "
                        "for this sweep and fail if there are none "
                        "(guards against silently restarting from "
                        "scratch after a parameter typo)")
    p.add_argument("--profile", action="store_true",
                   help="attach a time-attribution profiler and print "
                        "phase wall-times and the scheduler/transition/"
                        "memory/kernel/hooks split")
    p.add_argument("--folded", metavar="PATH", default=None,
                   help="with --profile: write flamegraph-ready folded "
                        "stacks to PATH")
    p.add_argument("--prometheus", metavar="PATH", default=None,
                   help="write the metrics in Prometheus text format "
                        "to PATH")
    p.add_argument("--telemetry", metavar="PATH", default=None,
                   help="stream live per-shard heartbeats (JSONL) to "
                        "PATH; follow with 'repro top PATH'")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also dump an ExperimentRecord JSON file to PATH")
    p.add_argument("--supervised", action="store_true",
                   help="run shards under the fault-tolerant "
                        "supervisor: watchdogs, bounded deterministic "
                        "retries, quarantine instead of sweep death — "
                        "results stay bit-identical (docs/ROBUSTNESS.md)")
    p.add_argument("--shard-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="kill and retry any shard attempt exceeding "
                        "this wall-clock budget (implies --supervised)")
    p.add_argument("--max-retries", type=int, default=None, metavar="N",
                   help="retries per shard before quarantine (implies "
                        "--supervised; default 2)")
    p.add_argument("--on-fault", default=None,
                   choices=["retry", "degrade", "quarantine", "fail"],
                   help="fault policy (implies --supervised): retry "
                        "on the same engine, degrade down the engine "
                        "ladder, quarantine immediately, or fail the "
                        "sweep on the first fault (default retry)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "trace",
        help="render the deterministic span tree of one seeded run")
    p.add_argument("--protocol", default="two",
                   choices=["two", "three-unbounded", "three-bounded",
                            "n", "naive"])
    p.add_argument("--inputs", default="a,b",
                   help="comma-separated input values, one per processor")
    p.add_argument("--scheduler", default="random",
                   choices=["random", "round-robin", "oblivious",
                            "split-vote", "laggard-freezer",
                            "read-adversary"])
    p.add_argument("--seed", type=int, default=0,
                   help="root seed of the batch the run belongs to")
    p.add_argument("--index", type=int, default=0,
                   help="run index within the batch (the replay key is "
                        "(seed, index))")
    p.add_argument("--max-steps", type=int, default=4000)
    p.add_argument("--max-spans", type=int, default=4096,
                   help="per-run span budget (excess steps are counted "
                        "as dropped, not recorded)")
    p.add_argument("--memory", default="atomic",
                   choices=["atomic", "regular", "safe"])
    _engine_argument(p, "sim",
                     "execution backend the traced run replays on "
                     "(span ids are deterministic either way)")
    p.add_argument("--wall", action="store_true",
                   help="also record wall-clock durations (wall_us "
                        "span attributes; ids stay deterministic)")
    p.add_argument("--otlp", metavar="PATH", default=None,
                   help="write the trace as OTLP-style JSON to PATH")
    p.add_argument("--from-journal", metavar="PATH", default=None,
                   help="skip running; render spans recorded in a "
                        "schema-v3 journal")
    p.add_argument("--trace-id", default=None,
                   help="with --from-journal: only this trace")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "top",
        help="live progress table for a sweep writing --telemetry")
    p.add_argument("path", help="telemetry JSONL file the sweep writes")
    p.add_argument("--follow", action="store_true",
                   help="keep refreshing until every shard is done")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period in seconds (with --follow)")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("journal", help="journal maintenance utilities")
    jsub = p.add_subparsers(dest="journal_command", required=True)
    jp = jsub.add_parser(
        "verify",
        help="check a JSONL journal for truncation or damage")
    jp.add_argument("path")
    jp.set_defaults(func=_cmd_journal_verify)

    p = sub.add_parser(
        "store",
        help="inspect or garbage-collect a content-addressed run store")
    ssub = p.add_subparsers(dest="store_command", required=True)
    sp = ssub.add_parser("ls", help="one line per stored spec")
    sp.add_argument("root", help="store directory")
    sp.set_defaults(func=_cmd_store)
    sp = ssub.add_parser("show", help="JSON detail of one stored spec")
    sp.add_argument("root", help="store directory")
    sp.add_argument("spec_hash",
                    help="spec hash (an unambiguous prefix is enough)")
    sp.set_defaults(func=_cmd_store)
    sp = ssub.add_parser(
        "verify",
        help="checksum every committed shard (format, SHA-256, key) "
             "and report damage without modifying anything")
    sp.add_argument("root", help="store directory")
    sp.add_argument("spec_hash", nargs="?", default=None,
                    help="optionally narrow to one spec (an "
                         "unambiguous prefix is enough)")
    sp.set_defaults(func=_cmd_store)
    sp = ssub.add_parser(
        "gc",
        help="remove .tmp orphans and quarantined .corrupt files "
             "(always) and, with --keep, every spec tree not matching "
             "a kept prefix")
    sp.add_argument("root", help="store directory")
    sp.add_argument("--keep", default=None, metavar="PREFIX[,PREFIX]",
                    help="comma-separated spec-hash prefixes to keep; "
                         "omit to only sweep crash-orphaned .tmp files")
    sp.add_argument("--dry-run", action="store_true",
                    help="print what would be removed without removing")
    sp.set_defaults(func=_cmd_store)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
