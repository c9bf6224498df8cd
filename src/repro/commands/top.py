"""``repro top``: follow a sweep's live telemetry file (one row per shard:
progress, steps/s, ETA, tail percentiles).
"""

from __future__ import annotations

import argparse


def add_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments of ``repro top``."""
    p.add_argument("path", help="telemetry JSONL file the sweep writes")
    p.add_argument("--follow", action="store_true",
                   help="keep refreshing until every shard is done")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period in seconds (with --follow)")
    p.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
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
