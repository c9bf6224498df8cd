"""``repro impossibility``: run the Theorem 4 pipeline over the deterministic zoo
(or one member) and print the certificates.
"""

from __future__ import annotations

import argparse


def add_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments of ``repro impossibility``."""
    p.add_argument("--protocol", default="all",
                   help="zoo member (obstinate, mirror, priority, "
                        "greedy-min) or 'all'")
    p.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
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
