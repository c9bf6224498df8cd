"""``repro report``: run an instrumented Monte-Carlo batch and print its
observability metrics (or replay a saved journal).
"""

from __future__ import annotations

import argparse

from repro.commands import engine_argument


def add_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments of ``repro report``."""
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
    engine_argument(p, "sim",
                     "execution backend; 'vector' steps each run "
                     "through the compiled table IR — see docs/IR.md")
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
                        "each run's setup/loop wall-time split (for a "
                        "split inside the loop, use `trace --wall`)")
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
    p.set_defaults(func=run)


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


def run(args: argparse.Namespace) -> int:
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
                         "(it times the setup and loop layers of runs "
                         "in this process, and supervised batches "
                         "always run on worker processes)")
    if args.profile and args.engine == "vector":
        raise SystemExit("--profile does not support --engine vector "
                         "(it computes each run before replaying it "
                         "into the sinks, so the profiler would time "
                         "only the replay)")
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
