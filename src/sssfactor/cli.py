"""Command-line interface: factor, relations.

Exit codes: 0 success, 1 starvation/failure or a reader that closed stdout
early, 2 usage errors.  Flags are the only input besides the arguments: a
set SSSFACTOR_* environment variable is a usage error rather than silently
ignored.  Options must be spelled out: an abbreviation such as --max for
--max-rounds is a usage error, so an unknown flag (--m) is never taken for
a longer one that it happens to prefix.  Timings come from
benchmarks/run.py, not from this interface.
"""

import argparse
import dataclasses
import json
import os
import sys

from .engine import (
    ALGORITHMS,
    FactorResult,
    RunConfig,
    collect_relations,
    factor,
    prepare,
)
from .numtheory import FoundFactor

SCHEMA_VERSION = 1

FACTOR_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "n", "factors", "success", "stats", "config"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "n": {"type": "string"},
        "factors": {
            "type": "array",
            "items": {"type": "array", "minItems": 2, "maxItems": 2},
        },
        "residue": {"type": "string"},
        "shortfalls": {"type": "array", "items": {"type": "string"}},
        "success": {"type": "boolean"},
        "stats": {"type": "object"},
        "config": {"type": "object"},
    },
}


def _unwritable(path: str) -> str | None:
    """Why no file can be written at path, or None when one can."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return f"cannot write {path}: it is a directory"
    if not os.path.isdir(folder):
        return f"cannot write {path}: no directory {folder}"
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return f"cannot write {path}: permission denied"
    return None


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--algo", choices=ALGORITHMS,
        help="relation search variant (default: sss, sssf from 75 digits)",
    )
    parser.add_argument("--seed", type=int, help=f"search seed (default {RunConfig.seed})")
    parser.add_argument("--max-rounds", type=int,
                        help="cap on collection rounds (default: none)")
    parser.add_argument("--no-partials", action="store_true",
                        help="disable the large-prime variant")


def _config_from(args) -> RunConfig:
    """RunConfig from the values the user gave; RunConfig holds the defaults."""
    given = {
        "algo": args.algo,
        "seed": args.seed,
        "max_rounds": args.max_rounds,
        "use_partials": False if args.no_partials else None,
    }
    return RunConfig(**{name: v for name, v in given.items() if v is not None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sssfactor",
        description="Integer factorization via smooth subsum search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor one integer", allow_abbrev=False)
    p_factor.add_argument("number", type=int, help="integer to factor (decimal)")
    p_factor.add_argument("--json", action="store_true", help="JSON output")
    _add_config_flags(p_factor)
    p_factor.set_defaults(func=cmd_factor, parser=p_factor)

    p_rel = sub.add_parser(
        "relations", help="dump collected relations without running phase 2",
        allow_abbrev=False,
    )
    p_rel.add_argument("number", type=int,
                       help="integer to collect relations for")
    p_rel.add_argument("--out", default="-",
                       help="full-relation CSV path ('-' for stdout)")
    p_rel.add_argument("--partials-out", default=None,
                       help="partial-relation CSV path ('-' for stdout)")
    _add_config_flags(p_rel)
    p_rel.set_defaults(func=cmd_relations, parser=p_rel)

    return parser


def _print_factors(result: FactorResult) -> None:
    if result.factors == [(result.n, 1)]:
        print(f"{result.n} (prime)")
        return
    for p, e in result.factors:
        print(p if e == 1 else f"{p}^{e}")
    if not result.success:
        print(f"unfactored residue: {result.residue}", file=sys.stderr)


def _usage_error(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def cmd_factor(args) -> int:
    if args.number < 2:
        return _usage_error("n must be at least 2")
    try:
        config = _config_from(args)
        result = factor(args.number, config)
    except ValueError as exc:
        return _usage_error(f"cannot factor {args.number}: {exc}")
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            **result.as_dict(),
            "config": dataclasses.asdict(config),
        }
        print(json.dumps(payload, indent=2))
    else:
        _print_factors(result)
    for message in result.shortfalls:
        print(message, file=sys.stderr)
    return 0 if result.success else 1


def cmd_relations(args) -> int:
    if args.number < 2:
        return _usage_error("n must be at least 2")
    for path in (args.out, args.partials_out):
        problem = path not in (None, "-") and _unwritable(path)
        if problem:
            return _usage_error(f"cannot collect relations for {args.number}: {problem}")
    try:
        config = _config_from(args)
        fb, sb, pre, ctx = prepare(args.number, config)
        store, _ = collect_relations(args.number, config, fb, sb, pre, ctx)
    except ValueError as exc:
        return _usage_error(f"cannot collect relations for {args.number}: {exc}")
    except FoundFactor as exc:
        print(f"divisor found while collecting relations: {exc.divisor}",
              file=sys.stderr)
        return 1
    dump = store.fulls_csv()
    if args.out == "-":
        sys.stdout.write(dump)
    else:
        with open(args.out, "w") as fh:
            fh.write(dump)
    if args.partials_out == "-":
        sys.stdout.write(store.partials_csv())
    elif args.partials_out:
        with open(args.partials_out, "w") as fh:
            fh.write(store.partials_csv())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # reported against the subcommand, whose usage line lists its flags
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    # no variable is read, so a set one names a value the run would not use
    stale = sorted(name for name in os.environ if name.startswith("SSSFACTOR_"))
    if stale:
        return _usage_error(
            f"{', '.join(stale)}: environment variables are not read; "
            f"use the flag instead (sssfactor {args.command} --help)"
        )
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
    except BrokenPipeError:
        # the reader of stdout closed it: nothing more can be shown, and
        # the flush at exit must not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
