"""``repro tower``: grade the Lamport register construction tower.
"""

from __future__ import annotations

import argparse


def add_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments of ``repro tower``."""
    p.add_argument("--seeds", type=int, default=15)
    p.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
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
