"""``repro solve``: run one consensus instance and print the outcome.
"""

from __future__ import annotations

import argparse

from repro.commands import build_protocol, engine_argument


def add_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments of ``repro solve``."""
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
    engine_argument(p, "sim",
                     "execution backend; 'vector' runs the compiled "
                     "table IR — see docs/IR.md")
    p.add_argument("--read-policy", default=None,
                   choices=["commit", "adversarial", "random"],
                   help="how the adversary resolves weak-memory reads "
                        "(default adversarial; needs --memory "
                        "regular|safe)")
    p.set_defaults(func=run)


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


def run(args: argparse.Namespace) -> int:
    from repro.core.consensus import solve

    inputs = args.inputs.split(",")
    protocol = build_protocol(args.protocol, len(inputs))
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
