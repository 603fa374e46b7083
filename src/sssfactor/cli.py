"""Command-line interface: factor, bench, relations.

Exit codes: 0 success, 1 starvation/failure, 2 usage errors.  Defaults for
the shared knobs can be overridden with SSSFACTOR_* environment variables
(e.g. SSSFACTOR_SEED=7), which is handy in CI.
"""

import argparse
import csv
import dataclasses
import json
import os
import random
import statistics
import sys
import time

from .engine import (
    FactorResult,
    RunConfig,
    RunStats,
    collect_relations,
    factor,
    prepare,
)
from .numtheory import FoundFactor, is_probable_prime

ENV_PREFIX = "SSSFACTOR_"

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
        "success": {"type": "boolean"},
        "stats": {"type": "object"},
        "config": {"type": "object"},
    },
}

BENCH_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "mode", "config", "runs"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "mode": {"enum": ["factor", "relations"]},
        "config": {"type": "object"},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "n",
                    "digits",
                    "algo",
                    "seed",
                    "rounds",
                    "candidates",
                    "relations",
                ],
                "properties": {
                    "n": {"type": "string"},
                    "digits": {"type": "integer"},
                    "algo": {"enum": ["sss", "sssf", "qs"]},
                    "seed": {"type": "integer"},
                    "wall_seconds": {"type": "number"},
                    "phase_seconds": {"type": "object"},
                    "success": {"type": "boolean"},
                    "divisor": {"type": "string"},
                    "rounds": {"type": "integer"},
                    "candidates": {"type": "integer"},
                    "relations": {
                        "type": "object",
                        "required": ["fulls", "partials", "combined"],
                    },
                },
            },
        },
    },
}


def _env(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"), fallback)


def _env_int(name: str, fallback=None):
    raw = _env(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        var = ENV_PREFIX + name.upper()
        raise ValueError(f"{var} must be an integer, got {raw!r}") from None


def _knob(args, name: str, fallback=None):
    """The flag's value, else the SSSFACTOR_ variable's, else the fallback.

    Variables are read here rather than as parser defaults, so a bad one is
    a usage error of the command instead of a traceback while parsing.
    """
    value = getattr(args, name)
    return _env_int(name, fallback) if value is None else value


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
        "--algo", choices=("sss", "sssf", "qs"), default=_env("algo"),
        help="relation search variant (default: sss, sssf from 75 digits)",
    )
    parser.add_argument("--m", type=int,
                        help="factor-base target size (default: by digit count)")
    parser.add_argument("--n", type=int,
                        help="small-base size (default: by digit count)")
    parser.add_argument("--k", type=int,
                        help="primes per subsum modulus (default: 6, sssf 7)")
    parser.add_argument("--rho", type=int, help="filter split ratio (sssf, default 10)")
    parser.add_argument("--delta", type=int,
                        help="filter cutoff offset (sssf, default 5)")
    parser.add_argument("--seed", type=int, help="search seed (default 0)")
    parser.add_argument("--max-rounds", type=int)
    parser.add_argument("--no-partials", action="store_true",
                        help="disable the large-prime variant")


def _config_from(args) -> RunConfig:
    return RunConfig(
        algo=args.algo,
        m=_knob(args, "m"),
        n=_knob(args, "n"),
        k=_knob(args, "k"),
        rho=_knob(args, "rho", 10),
        delta=_knob(args, "delta", 5),
        seed=_knob(args, "seed", 0),
        max_rounds=_knob(args, "max_rounds"),
        use_partials=not args.no_partials,
    )


def _config_echo(config: RunConfig) -> dict:
    return dataclasses.asdict(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sssfactor",
        description="Integer factorization via smooth subsum search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor one integer")
    p_factor.add_argument("number", type=int, help="integer to factor (decimal)")
    p_factor.add_argument("--json", action="store_true", help="JSON output")
    _add_config_flags(p_factor)
    p_factor.set_defaults(func=cmd_factor)

    p_bench = sub.add_parser(
        "bench", help="generate balanced semiprimes and time the algorithms"
    )
    p_bench.add_argument("--digits", required=True,
                         help="digit count, or comma-separated list (e.g. 30,35)")
    p_bench.add_argument("--count", type=int, default=5,
                         help="semiprimes per digit count")
    p_bench.add_argument("--algos", default="sss",
                         help="comma-separated subset of sss,sssf,qs")
    p_bench.add_argument("--timeout-seconds", type=float, default=None,
                         help="count relations found within the budget "
                              "instead of timing full factorizations")
    p_bench.add_argument("--out", default="bench_report",
                         help="output prefix; writes <out>.json and <out>.csv")
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_rel = sub.add_parser(
        "relations", help="dump collected relations without running phase 2"
    )
    p_rel.add_argument("number", type=int,
                       help="integer to collect relations for")
    p_rel.add_argument("--rounds", type=int, default=None,
                       help="cap on search rounds")
    p_rel.add_argument("--out", default="-",
                       help="full-relation CSV path ('-' for stdout)")
    p_rel.add_argument("--partials-out", default=None,
                       help="partial-relation CSV path ('-' for stdout)")
    _add_config_flags(p_rel)
    p_rel.set_defaults(func=cmd_relations)

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
            "config": _config_echo(config),
        }
        print(json.dumps(payload, indent=2))
    else:
        _print_factors(result)
    return 0 if result.success else 1


def random_prime(digits: int, rng: random.Random) -> int:
    """A random probable prime with exactly `digits` digits."""
    lo, hi = 10 ** (digits - 1), 10 ** digits
    while True:
        candidate = rng.randrange(lo, hi) | 1
        if is_probable_prime(candidate):
            return candidate


def generate_semiprime(digits: int, rng: random.Random) -> tuple[int, int, int]:
    """A d-digit product of two distinct probable primes of about equal size."""
    if digits < 2:
        raise ValueError("semiprimes need at least 2 digits")
    hi = (digits + 1) // 2
    lo = digits // 2
    while True:
        p = random_prime(hi, rng)
        q = random_prime(lo, rng)
        n = p * q
        if p != q and len(str(n)) == digits:
            return n, p, q


def _bench_factor_run(n: int, config: RunConfig) -> dict:
    t0 = time.perf_counter()
    result = factor(n, config)
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": wall,
        "success": result.success,
        "rounds": result.stats.rounds,
        "candidates": result.stats.candidates,
        "phase_seconds": dict(result.stats.phase_seconds),
        "relations": {
            "fulls": result.stats.fulls,
            "partials": result.stats.partials,
            "combined": result.stats.combined,
        },
    }


def _bench_relations_run(n: int, config: RunConfig, budget: float) -> dict:
    """Relations found within the budget; a divisor found on the way ends
    the run early and is recorded as an unsuccessful run."""
    stats = RunStats()
    divisor = None
    t0 = time.perf_counter()
    try:
        fb, sb, pre, ctx = prepare(n, config)
        deadline = time.monotonic() + budget
        collect_relations(n, config, fb, sb, pre, ctx, deadline=deadline, stats=stats)
    except FoundFactor as exc:
        divisor = exc.divisor
    wall = time.perf_counter() - t0
    record = {
        "wall_seconds": wall,
        "success": divisor is None,
        "rounds": stats.rounds,
        "candidates": stats.candidates,
        "phase_seconds": dict(stats.phase_seconds),
        "relations": {
            "fulls": stats.fulls,
            "partials": stats.partials,
            "combined": stats.combined,
        },
    }
    if divisor is not None:
        record["divisor"] = str(divisor)
    return record


def _summarize(runs: list[dict], mode: str) -> list[dict]:
    groups: dict[tuple[int, str], list[float]] = {}
    for record in runs:
        key = (record["digits"], record["algo"])
        if mode == "factor":
            value = record["wall_seconds"]
        else:
            rel = record["relations"]
            value = rel["fulls"] + rel["combined"]
        groups.setdefault(key, []).append(value)
    metric = "wall_seconds" if mode == "factor" else "relations_found"
    rows = []
    for (digits, algo), values in sorted(groups.items()):
        rows.append(
            {
                "digits": digits,
                "algo": algo,
                "runs": len(values),
                "metric": metric,
                "mean": statistics.fmean(values),
                "std": statistics.pstdev(values) if len(values) > 1 else 0.0,
            }
        )
    return rows


def cmd_bench(args) -> int:
    try:
        digit_list = [int(d) for d in str(args.digits).split(",") if d]
        algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    except ValueError:
        return _usage_error("bad --digits value")
    if not digit_list or not algos:
        return _usage_error("need at least one digit count and one algorithm")
    for a in algos:
        if a not in ("sss", "sssf", "qs"):
            return _usage_error(f"unknown algorithm {a!r}")
    if any(d < 8 for d in digit_list):
        return _usage_error("bench needs at least 8 digits (smaller inputs never "
                            "reach the relation search)")
    if args.count < 1:
        return _usage_error(f"bench: --count must be at least 1, got {args.count}")
    if args.timeout_seconds is not None and not args.timeout_seconds > 0:
        return _usage_error(
            f"bench: --timeout-seconds must be positive, got {args.timeout_seconds}"
        )
    json_path = args.out + ".json"
    csv_path = args.out + ".csv"
    for path in (json_path, csv_path):
        problem = _unwritable(path)
        if problem:
            return _usage_error(f"bench: {problem}")

    mode = "factor" if args.timeout_seconds is None else "relations"
    runs = []
    try:
        base = _config_from(args)
        rng = random.Random(base.seed)
        for digits in digit_list:
            for index in range(args.count):
                n, _, _ = generate_semiprime(digits, rng)
                for algo in algos:
                    config = dataclasses.replace(base, algo=algo)
                    if mode == "factor":
                        record = _bench_factor_run(n, config)
                    else:
                        record = _bench_relations_run(n, config, args.timeout_seconds)
                    record.update(
                        {
                            "n": str(n),
                            "digits": digits,
                            "algo": algo,
                            "seed": base.seed,
                            "index": index,
                            "config": _config_echo(config),
                        }
                    )
                    runs.append(record)
                    rel = record["relations"]
                    print(
                        f"{digits}d {algo:>4} n={n} "
                        f"wall={record['wall_seconds']:.3f}s "
                        f"fulls={rel['fulls']} partials={rel['partials']} "
                        f"combined={rel['combined']}"
                    )
    except ValueError as exc:
        return _usage_error(f"bench: {exc}")

    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "config": _config_echo(base),
        "timeout_seconds": args.timeout_seconds,
        "runs": runs,
    }
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2)
    summary = _summarize(runs, mode)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["digits", "algo", "runs", "metric", "mean", "std"]
        )
        writer.writeheader()
        writer.writerows(summary)
    for row in summary:
        print(
            f"summary {row['digits']}d {row['algo']:>4} "
            f"{row['metric']}: {row['mean']:.3f} +/- {row['std']:.3f} "
            f"({row['runs']} runs)"
        )
    print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_relations(args) -> int:
    if args.number < 2:
        return _usage_error("n must be at least 2")
    for path in (args.out, args.partials_out):
        problem = path not in (None, "-") and _unwritable(path)
        if problem:
            return _usage_error(f"cannot collect relations for {args.number}: {problem}")
    try:
        config = _config_from(args)
        if args.rounds is not None:
            config = dataclasses.replace(config, max_rounds=args.rounds)
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
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
