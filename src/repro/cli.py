"""Command-line interface: ``python -m repro <command>``.

Subcommands map one-to-one onto the library's main entry points:

* ``solve``          — run one consensus instance and print the outcome;
* ``verify``         — exhaustive safety verification over all
  schedules × coin outcomes;
* ``impossibility``  — run the Theorem 4 pipeline over the
  deterministic zoo (or one member) and print the certificates;
* ``game``           — solve the two-processor scheduling game exactly
  and print worst-case expected costs;
* ``tower``          — grade the Lamport register construction tower;
* ``report``         — run an instrumented Monte-Carlo batch and print
  its observability metrics (or replay a saved journal);
* ``trace``          — re-execute one seeded run with the span tracer
  attached and print its deterministic span tree;
* ``top``            — follow a sweep's live telemetry file (one row
  per shard: progress, steps/s, ETA, tail percentiles);
* ``journal verify`` — check a JSONL journal for truncation or damage;
* ``store``          — inspect, checksum-verify, or garbage-collect a
  content-addressed run store (``ls``/``show``/``verify``/``gc``; see
  docs/STORE.md).

Each command's arguments and body live in its own module under
:mod:`repro.commands`; a command builds only its own arguments and
loads only its own module, while ``repro --help`` still lists every
command.

Every ``--engine`` flag validates through the engine registry
(:mod:`repro.engines`): the accepted vocabulary, the default, and the
did-you-mean error for typos all come from the registry rather than
per-command hardcoded lists.

Examples::

    python -m repro solve --protocol three-bounded --inputs a,b,b --trace
    python -m repro solve --inputs a,b --metrics --journal run.jsonl
    python -m repro solve --inputs a,b --memory regular --seed 3
    python -m repro verify --protocol two --inputs a,b
    python -m repro verify --inputs a,b --memory safe
    python -m repro impossibility
    python -m repro game --cost processor:0
    python -m repro tower --seeds 20
    python -m repro report --protocol two --runs 5000
    python -m repro report --runs 100000 --workers 8 --telemetry top.jsonl
    python -m repro report --runs 100000 --store runs/ --workers 8
    python -m repro report --runs 100000 --store runs/ --resume
    python -m repro report --runs 100000 --workers 8 --supervised \
        --shard-timeout 300 --max-retries 2 --on-fault degrade
    python -m repro report --from-journal run.jsonl
    python -m repro report --runs 200 --profile --folded profile.folded
    python -m repro trace --seed 42 --index 7
    python -m repro top top.jsonl --follow
    python -m repro journal verify run.jsonl
    python -m repro store ls runs/
    python -m repro store show runs/ 260585
    python -m repro store verify runs/
    python -m repro store gc runs/ --keep 260585 --dry-run
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional, Sequence

#: ``(command, help line)`` in ``--help`` order; ``repro.commands.<command>``
#: holds its arguments (``add_arguments``) and body (``run``).
COMMANDS = (
    ("solve", "run one consensus instance"),
    ("verify", "exhaustive safety verification"),
    ("impossibility", "Theorem 4 certificates for deterministic protocols"),
    ("game", "solve the two-processor scheduling game"),
    ("tower", "grade the register constructions"),
    ("report", "instrumented Monte-Carlo batch with metrics report"),
    ("trace", "render the deterministic span tree of one seeded run"),
    ("top", "live progress table for a sweep writing --telemetry"),
    ("journal", "journal maintenance utilities"),
    ("store", "inspect or garbage-collect a content-addressed run store"),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser: every command with its help line, and the
    arguments of ``command`` only (of every command when ``None``).

    The other commands get empty parsers: their names and help lines
    still make the usage and ``--help``, but their arguments are
    neither built nor imported.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Chor-Israeli-Li (PODC 1987) reproduction: "
                     "randomized wait-free consensus with atomic "
                     "read/write registers."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line in COMMANDS:
        command_parser = sub.add_parser(name, help=help_line)
        if command is None or command == name:
            importlib.import_module(f"repro.commands.{name}").add_arguments(
                command_parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv: List[str] = sys.argv[1:] if argv is None else list(argv)
    # The command is the first argument: the top-level parser has no
    # option but --help.
    args = build_parser(argv[0] if argv else "").parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
