"""``repro store``: inspect, checksum-verify, or garbage-collect a
content-addressed run store (``ls``/``show``/``verify``/``gc``; see
docs/STORE.md).
"""

from __future__ import annotations

import argparse


def add_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments of ``repro store``."""
    ssub = p.add_subparsers(dest="store_command", required=True)
    sp = ssub.add_parser("ls", help="one line per stored spec")
    sp.add_argument("root", help="store directory")
    sp.set_defaults(func=run)
    sp = ssub.add_parser("show", help="JSON detail of one stored spec")
    sp.add_argument("root", help="store directory")
    sp.add_argument("spec_hash",
                    help="spec hash (an unambiguous prefix is enough)")
    sp.set_defaults(func=run)
    sp = ssub.add_parser(
        "verify",
        help="checksum every committed shard (format, SHA-256, key) "
             "and report damage without modifying anything")
    sp.add_argument("root", help="store directory")
    sp.add_argument("spec_hash", nargs="?", default=None,
                    help="optionally narrow to one spec (an "
                         "unambiguous prefix is enough)")
    sp.set_defaults(func=run)
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
    sp.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
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
