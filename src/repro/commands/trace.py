"""``repro trace``: re-execute one seeded run with the span tracer attached
and print its deterministic span tree.
"""

from __future__ import annotations

import argparse

from repro.commands import engine_argument


def add_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments of ``repro trace``."""
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
    engine_argument(p, "sim",
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
    p.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
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
