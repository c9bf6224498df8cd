"""``repro verify``: exhaustive safety verification over all schedules ×
coin outcomes.
"""

from __future__ import annotations

import argparse

from repro.commands import build_protocol, engine_argument


def add_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments of ``repro verify``."""
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
    engine_argument(p, "checker",
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
    p.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.checker import verify_safety

    inputs = args.inputs.split(",")
    protocol = build_protocol(args.protocol, len(inputs))
    if args.engine != "fingerprints" and (
            args.symmetry or args.por or args.exact or args.telemetry):
        print("error: --symmetry/--por/--exact/--telemetry "
              "require --engine fingerprints")
        return 2
    print(f"protocol: {protocol.name}, inputs {inputs}")
    if args.engine == "fingerprints":
        from repro.checker.statespace import explore_fast

        report = explore_fast(
            protocol, inputs, memory=args.memory, max_depth=args.depth,
            max_states=args.max_states, symmetry=args.symmetry,
            por=args.por, exact=args.exact,
            telemetry_path=args.telemetry,
        )
        print(f"explored: {report.visited} configurations, "
              f"{report.edges} edges, depth {report.depth} "
              f"({report.states_per_sec:,.0f} states/sec"
              + (", exact visited set" if report.exact else "") + ")")
        if args.symmetry:
            note = (f" ({report.symmetry_note})"
                    if report.symmetry_note else "")
            print(f"symmetry: group order {report.symmetry_order}{note}")
        if args.por:
            if report.por:
                print(f"por:      {report.pruned} sleep-pruned expansions")
            else:
                print(f"por:      {report.por_note}")
    else:
        report = verify_safety(protocol, inputs, max_depth=args.depth,
                               max_states=args.max_states,
                               memory=args.memory, engine=args.engine)
    # The rest is one report, whichever engine searched.
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
