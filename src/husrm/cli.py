"""Command-line frontend: mining, reference verification, data
generation, dataset stats, and ablation benchmarking.

Exit codes: 0 success, 1 internal invariant or cross-check failure,
running out of memory or recursion depth, or a mining worker process
that died, 2 usage or input parse error,
3 reference enumeration hit its length cap (verification inconclusive).
Every run echoes its fully resolved configuration on stderr, before
checking it, so results are reproducible from logs alone, rejected runs
included.
"""

import statistics
import sys
import time
from argparse import ArgumentParser
from contextlib import contextmanager

from .dataio import format_rule, half_up, load_database, write_native, write_rules, write_stats
from .datagen import GenParams, generate
from .miner import VARIANTS, MiningConfig, WorkerError, mine
from .model import InvariantError, SequenceDatabase, Threshold
from .oracle import OracleConfig, oracle_mine

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _echo_config(pairs: dict) -> None:
    for key, value in pairs.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        print(f"[config] {key}={value}", file=sys.stderr)


@contextmanager
def _out_stream(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _add_input_args(parser: ArgumentParser) -> None:
    parser.add_argument("input", help="path to the sequence database")
    parser.add_argument(
        "--format",
        choices=("auto", "native", "spmf"),
        default="auto",
        help="input encoding (default: by file extension)",
    )


def _add_threshold_args(parser: ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", help="minutil as a decimal ratio of total database utility")
    group.add_argument("--minutil", help="absolute minutil as a decimal")
    parser.add_argument(
        "--minconf", default="0.6", help="confidence threshold in (0, 1] (default 0.6)"
    )


def _load_and_echo(args, **own) -> tuple[SequenceDatabase, Threshold, Threshold]:
    """Load the input, resolve both thresholds and echo them with the command's own keys.

    Callers build and check their configs after this echo, before any mining.
    """
    db = load_database(args.input, args.format)
    if args.delta is not None:
        minutil = Threshold.from_string(args.delta).times(db.total_utility)
    else:
        minutil = Threshold.from_string(args.minutil)
    minconf = Threshold.from_string(args.minconf)
    _echo_config(
        {
            "command": args.command,
            "input": args.input,
            "format": args.format,
            "minutil": minutil,
            "minconf": minconf,
            **own,
        }
    )
    return db, minutil, minconf


def _cmd_mine(args) -> int:
    db, minutil, minconf = _load_and_echo(
        args, dedup=args.dedup, sort=args.sort, out=args.out or "-", stats=args.stats or "-"
    )
    rules, stats = mine(db, MiningConfig(minutil, minconf, dedup=args.dedup))
    with _out_stream(args.out) as stream:
        write_rules(rules, db.items, stream, sort=args.sort)
    if args.stats is None:
        write_stats(stats, sys.stderr)
    else:
        with _out_stream(args.stats) as stream:
            write_stats(stats, stream)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    db, minutil, minconf = _load_and_echo(args, max_len=args.max_len, out=args.out or "-")
    rules, cap_hit = oracle_mine(db, OracleConfig(minutil, minconf, args.max_len))
    with _out_stream(args.out) as stream:
        write_rules(rules, db.items, stream)
    if cap_hit:
        print("warning: length cap reached; rule set may be truncated", file=sys.stderr)
        return EXIT_CAP
    return EXIT_OK


def _cmd_verify(args) -> int:
    db, minutil, minconf = _load_and_echo(args, max_len=args.max_len)
    cfg = MiningConfig(minutil=minutil, minconf=minconf)
    oracle_cfg = OracleConfig(minutil, minconf, args.max_len)
    mined, _stats = mine(db, cfg)
    expected, cap_hit = oracle_mine(db, oracle_cfg)
    mined_keys = {r.key(): r for r in mined}
    expected_keys = {r.key(): r for r in expected}
    only_miner = sorted(set(mined_keys) - set(expected_keys))
    only_oracle = sorted(set(expected_keys) - set(mined_keys))
    for key in only_miner:
        print(f"only miner: {format_rule(mined_keys[key], db.items)}")
    for key in only_oracle:
        print(f"only oracle: {format_rule(expected_keys[key], db.items)}")
    if cap_hit:
        print(
            "warning: reference enumeration hit the length cap; verification inconclusive",
            file=sys.stderr,
        )
        return EXIT_CAP
    if only_miner or only_oracle:
        print(
            f"MISMATCH: {len(only_miner)} extra, {len(only_oracle)} missing", file=sys.stderr
        )
        return EXIT_INVARIANT
    print(f"OK: {len(mined)} rules match the reference", file=sys.stderr)
    return EXIT_OK


def _cmd_gen(args) -> int:
    _echo_config(
        {
            "command": "gen",
            "sequences": args.sequences,
            "alphabet": args.alphabet,
            "avg_len": args.avg_len,
            "max_len": args.max_len,
            "util_min": args.util_min,
            "util_max": args.util_max,
            "skew": args.skew,
            "seed": args.seed,
            "out": args.out or "-",
        }
    )
    params = GenParams(
        num_sequences=args.sequences,
        alphabet_size=args.alphabet,
        avg_length=args.avg_len,
        max_length=args.max_len,
        utility_min=args.util_min,
        utility_max=args.util_max,
        item_skew=args.skew,
        seed=args.seed,
    )
    db = generate(params)
    with _out_stream(args.out) as stream:
        write_native(db, stream)
    return EXIT_OK


def _cmd_stats(args) -> int:
    db = load_database(args.input, args.format)
    _echo_config({"command": "stats", "input": args.input, "format": args.format})
    n = len(db.sequences)
    total_events = sum(len(seq) for seq in db.sequences)
    avg = half_up(total_events, n, 2) if n else "0.00"
    print(f"sequences={n}")
    print(f"distinct_items={len(db.distinct_items())}")
    print(f"avg_events={avg}")
    print(f"max_events={max((len(seq) for seq in db.sequences), default=0)}")
    print(f"total_utility={db.total_utility}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    names = [name.strip() for name in args.variants.split(",") if name.strip()]
    db, minutil, minconf = _load_and_echo(
        args, dedup=args.dedup, variants=",".join(names), repeat=args.repeat
    )
    if not names:
        raise ValueError("no variants given")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"repeated variant {', '.join(map(repr, repeated))}")
    if args.repeat < 1:
        raise ValueError("repeat must be positive")
    configs = [MiningConfig(minutil, minconf, variant=name, dedup=args.dedup) for name in names]
    results = {}
    for name, cfg in zip(names, configs):
        runtimes = []
        rules = stats = None
        for _ in range(args.repeat):
            begin = time.perf_counter()
            rules, stats = mine(db, cfg)
            runtimes.append((time.perf_counter() - begin) * 1000.0)
        results[name] = (rules, stats, statistics.median(runtimes))

    baseline = {rule.key() for rule in results[names[0]][0]}
    for name in names[1:]:
        if {rule.key() for rule in results[name][0]} != baseline:
            print(
                f"MISMATCH: variant {name} produced a different rule set than {names[0]}",
                file=sys.stderr,
            )
            return EXIT_INVARIANT

    for name in names:
        _, stats, med = results[name]
        print(f"variant={name}")
        print(f"candidates={stats.candidates}")
        print(f"srtgrowth_calls={stats.candidates}")
        print(f"rrs_prunes={stats.rrs_prunes}")
        print(f"view_prunes={stats.view_prunes}")
        print(f"rules={stats.rules}")
        print(f"median_runtime_ms={med:.1f}")
        print()
    return EXIT_OK


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="husrm",
        description="High-utility sequential rule mining over utility-annotated sequence databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine all high-utility sequential rules")
    _add_input_args(p)
    _add_threshold_args(p)
    p.add_argument("--dedup", action="store_true", help="keep only the max-utility duplicate per item per sequence")
    p.add_argument("--sort", action="store_true", help="sort output by utility desc, then lexicographically")
    p.add_argument("--out", help="rule output path (default stdout)")
    p.add_argument("--stats", help="statistics output path (default stderr)")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("oracle", help="mine with the brute-force reference miner")
    _add_input_args(p)
    _add_threshold_args(p)
    p.add_argument("--max-len", type=int, default=8, help="pattern length cap (default 8)")
    p.add_argument("--out", help="rule output path (default stdout)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="diff the miner against the brute-force reference")
    _add_input_args(p)
    _add_threshold_args(p)
    p.add_argument("--max-len", type=int, default=8, help="reference pattern length cap (default 8)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded synthetic database")
    p.add_argument("--sequences", type=int, required=True)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--avg-len", type=float, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--util-min", type=int, default=1)
    p.add_argument("--util-max", type=int, default=9)
    p.add_argument("--skew", type=float, default=1.0, help="Zipf exponent over item ranks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run ablation variants and compare counters")
    _add_input_args(p)
    _add_threshold_args(p)
    p.add_argument("--variants", default=",".join(VARIANTS), help="comma list of variants to run")
    p.add_argument("--repeat", type=int, default=1, help="repetitions per variant for the median runtime")
    p.add_argument("--dedup", action="store_true")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("stats", help="print dataset shape features")
    _add_input_args(p)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INVARIANT
    except (RecursionError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
