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
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, fields

from .dataio import (
    dedup_max_utility, format_rule, half_up, load_database, write_native, write_rules, write_stats
)
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

    The thresholds are resolved against the database as loaded; with
    dedup=True among the own keys, the database returned is then
    dedup_max_utility's. Callers build and check their configs after
    this echo, then open their output files, before any mining.
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
    if own.get("dedup"):
        db = dedup_max_utility(db)
    return db, minutil, minconf


def _cmd_mine(args) -> int:
    db, minutil, minconf = _load_and_echo(
        args, dedup=args.dedup, sort=args.sort, out=args.out or "-", stats=args.stats or "-"
    )
    cfg = MiningConfig(minutil, minconf)
    stats_stream = nullcontext(sys.stderr) if args.stats is None else _out_stream(args.stats)
    with _out_stream(args.out) as out, stats_stream as stats_out:
        rules, stats = mine(db, cfg)
        write_rules(rules, db.items, out, sort=args.sort)
        write_stats(stats, stats_out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    db, minutil, minconf = _load_and_echo(args, max_len=args.max_len, out=args.out or "-")
    cfg = OracleConfig(minutil, minconf, args.max_len)
    with _out_stream(args.out) as out:
        rules, cap_hit = oracle_mine(db, cfg)
        write_rules(rules, db.items, out)
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
    mined_set, expected_set = set(mined), set(expected)
    only_miner = sorted(mined_set - expected_set)
    only_oracle = sorted(expected_set - mined_set)
    for rule in only_miner:
        print(f"only miner: {format_rule(rule, db.items)}")
    for rule in only_oracle:
        print(f"only oracle: {format_rule(rule, db.items)}")
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


# gen's flags (by dest, which is also the echo key) and the GenParams
# fields they set, in field order. A field's type and default are its
# flag's; a field without a default makes its flag required.
_GEN_FLAGS = {
    "sequences": "num_sequences",
    "alphabet": "alphabet_size",
    "avg_len": "avg_length",
    "max_len": "max_length",
    "util_min": "utility_min",
    "util_max": "utility_max",
    "skew": "item_skew",
    "seed": "seed",
}


def _cmd_gen(args) -> int:
    values = {dest: getattr(args, dest) for dest in _GEN_FLAGS}
    _echo_config({"command": "gen", **values, "out": args.out or "-"})
    db = generate(GenParams(**{_GEN_FLAGS[dest]: value for dest, value in values.items()}))
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
    configs = [MiningConfig(minutil, minconf, variant=name) for name in names]
    results = {}
    for name, cfg in zip(names, configs):
        runtimes = []
        rules = stats = None
        for _ in range(args.repeat):
            begin = time.perf_counter()
            rules, stats = mine(db, cfg)
            runtimes.append((time.perf_counter() - begin) * 1000.0)
        results[name] = (rules, stats, statistics.median(runtimes))

    baseline = set(results[names[0]][0])
    for name in names[1:]:
        if set(results[name][0]) != baseline:
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
    field_of = {f.name: f for f in fields(GenParams)}
    for dest, name in _GEN_FLAGS.items():
        field = field_of[name]
        required = field.default is MISSING
        p.add_argument(
            "--" + dest.replace("_", "-"),
            type=field.type,
            required=required,
            default=None if required else field.default,
            help="Zipf exponent over item ranks" if name == "item_skew" else None,
        )
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
