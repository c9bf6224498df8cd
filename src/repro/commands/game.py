"""``repro game``: solve the two-processor scheduling game exactly and print
worst-case expected costs.
"""

from __future__ import annotations

import argparse


def add_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments of ``repro game``."""
    p.add_argument("--inputs", default="a,b")
    p.add_argument("--cost", default="processor:0",
                   help="'processor:<pid>' or 'total'")
    p.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
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
