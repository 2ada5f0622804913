"""Command line front end.

Exit codes: 0 success, 2 validation failure, 3 verification incomplete,
4 parse failure, 5 internal error (an identity the computation relies on
failed, which is a bug; the report names the identity). Reports are
deterministic JSON on stdout (and --out); timing goes to stderr so
repeated runs stay byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time

from .documents import load_document
from .errors import (
    ClosureError,
    DeskScaleError,
    InternalInvariantError,
    ParseError,
    SearchExhausted,
    ValidationError,
)
from .pipeline import COMMANDS, DEFAULT_MAX_STEPS, DEFAULT_SAMPLES, DEFAULT_SEED, run_verify

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCOMPLETE = 3
EXIT_PARSE = 4
EXIT_INTERNAL = 5


COMMAND_HELP = {
    "check": "validate a document's invariants",
    "endo": "invariant endomorphism algebra and its simple factors",
    "cone": "invariant form lattice, cone flags, test class verdicts",
    "funddom": "construct the fundamental domain",
    "reduce": "reduce test forms with word certificates",
    "verify": "tiling, overlap and transfer verification",
}
VERIFY_DEFAULTS = {"samples": DEFAULT_SAMPLES, "max_steps": DEFAULT_MAX_STEPS}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: argparse builds a help
    formatter for every argument, which costs an in-process caller (tests,
    the benchmark, library use) about a millisecond per main() call. One
    flat parser takes the command as a positional choice; _parse rejects
    verify's options on the other commands."""
    parser = argparse.ArgumentParser(
        prog="conecrafter",
        description="polarized torus actions, invariant cones, fundamental domains",
        epilog="; ".join(f"{name}: {text}" for name, text in COMMAND_HELP.items()),
    )
    parser.add_argument("command", choices=COMMAND_HELP, help="what to compute")
    parser.add_argument("input", help="path to a document JSON file")
    parser.add_argument("--out", help="also write the report to this path")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seeds verify's sampling; others ignore it")
    parser.add_argument("--samples", type=int, help=f"verify only: tiling sample count (default {DEFAULT_SAMPLES})")
    parser.add_argument(
        "--max-steps", type=int, help=f"verify only: search budget per sample (default {DEFAULT_MAX_STEPS})"
    )
    return parser


def _parse(argv) -> argparse.Namespace:
    parser = _parser()
    args = parser.parse_args(argv)
    for name, default in VERIFY_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.command != "verify":
            parser.error(f"--{name.replace('_', '-')} applies to verify only")
    return args


def _emit(report: dict, out) -> None:
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if out is not None:
        out.truncate(0)
        out.write(text)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        # Opened before any work, so that a path that cannot be written
        # fails at once; append mode leaves an existing file (even the
        # input document) untouched until the report replaces it.
        out = open(args.out, "a", encoding="utf-8") if args.out else contextlib.nullcontext()
    except OSError as exc:
        message = f"out_path: cannot write {args.out}: {exc.strerror or exc}"
        _emit({"error": {"type": "validation", "message": message, "invariant": "out_path"}}, None)
        return EXIT_VALIDATION
    with out as fh:
        return _run(args, fh)


def _run(args, out) -> int:
    started = time.perf_counter()
    try:
        doc = load_document(args.input)
        if args.command == "verify":
            report = run_verify(
                doc, seed=args.seed, samples=args.samples, max_steps=args.max_steps
            )
        else:
            report = COMMANDS[args.command](doc)
    except ParseError as exc:
        _emit({"error": {"type": "parse", "message": str(exc)}}, out)
        return EXIT_PARSE
    except (ValidationError, ClosureError, DeskScaleError) as exc:
        detail = {"type": "validation", "message": str(exc), "invariant": exc.invariant}
        _emit({"error": detail}, out)
        return EXIT_VALIDATION
    except SearchExhausted as exc:
        _emit({"error": {"type": "incomplete", "message": str(exc)}}, out)
        return EXIT_INCOMPLETE
    except InternalInvariantError as exc:
        _emit({"error": {"type": "internal", "message": str(exc)}}, out)
        return EXIT_INTERNAL
    elapsed = (time.perf_counter() - started) * 1000.0
    _emit(report, out)
    print(f"# {args.command} {args.input}: {elapsed:.1f} ms", file=sys.stderr)
    if args.command == "verify" and not report.get("complete", False):
        return EXIT_INCOMPLETE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
