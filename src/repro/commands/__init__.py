"""The bodies of the ``repro`` commands, one module per command.

:mod:`repro.cli` lists every command and imports only the invoked
one's module: each defines ``add_arguments(parser)`` and
``run(args) -> exit code``.  This package holds what several commands
share.
"""

from __future__ import annotations

import argparse


def engine_argument(parser: argparse.ArgumentParser, kind: str,
                    detail: str) -> None:
    """Add a registry-driven ``--engine`` flag for one engine kind.

    The accepted names, the advertised default, and the rejection
    message (with its did-you-mean suggestion) all come from
    :mod:`repro.engines` — the CLI holds no engine vocabulary of its
    own.
    """
    from repro.engines import default_engine, engine_names

    def validate(name: str) -> str:
        from repro.engines import UnknownEngineError, resolve_engine

        try:
            return resolve_engine(kind, name).name
        except UnknownEngineError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    parser.add_argument(
        "--engine", default=None, type=validate,
        metavar="{" + ",".join(engine_names(kind)) + "}",
        help=(f"{detail} (default: "
              f"{default_engine(kind).name})"))


def build_protocol(name: str, n_inputs: int):
    """The protocol a command names, built for ``n_inputs`` processors."""
    from repro.parallel.tasks import PROTOCOL_NAMES, ProtocolSpec

    if name not in PROTOCOL_NAMES:
        raise SystemExit(f"unknown protocol {name!r}")
    return ProtocolSpec(name, n_inputs)()
