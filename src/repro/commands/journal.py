"""``repro journal``: check a JSONL journal for truncation or damage
(``journal verify``).
"""

from __future__ import annotations

import argparse


def add_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments of ``repro journal``."""
    jsub = p.add_subparsers(dest="journal_command", required=True)
    jp = jsub.add_parser(
        "verify",
        help="check a JSONL journal for truncation or damage")
    jp.add_argument("path")
    jp.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.obs import verify_journal

    verdict = verify_journal(args.path)
    print(verdict.render())
    return 0 if verdict.ok else 1
