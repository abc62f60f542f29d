"""Shared CLI plumbing for the service-plane benchmarks.

Both ``bench_service.py`` and ``bench_migration.py`` run standalone in
CI smoke jobs and need the same executor knobs: which execution model
serves the load (``--executor thread|process``), how many workers
(``--workers``), smoke vs full assertions (``--smoke``), and the JSON
artifact path (``--json``).  One helper keeps the flag names, defaults,
and artifact format identical across the benches.
"""

from __future__ import annotations

import argparse
import json

from repro.config import SERVICE_EXECUTORS


def service_arg_parser(description: str,
                       default_workers: int = 4) -> argparse.ArgumentParser:
    """An ``ArgumentParser`` pre-loaded with the shared service flags."""
    parser = argparse.ArgumentParser(description=description)
    add_service_args(parser, default_workers=default_workers)
    return parser


def add_service_args(parser: argparse.ArgumentParser,
                     default_workers: int = 4) -> argparse.ArgumentParser:
    """Attach ``--executor/--workers/--smoke/--json`` to ``parser``."""
    parser.add_argument("--executor", default="thread",
                        choices=SERVICE_EXECUTORS,
                        help="execution model for the serving engine: "
                             "in-process worker threads or one OS "
                             "process per worker")
    parser.add_argument("--workers", type=int, default=default_workers,
                        help="worker count for the scaled arm "
                             f"(default {default_workers})")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: small inputs, correctness "
                             "assertions only (no speedup floor)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="dump the results dict as a JSON artifact")
    return parser


def write_json_artifact(payload: dict, path: str) -> None:
    """Write the bench result dict where CI picks it up."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")
