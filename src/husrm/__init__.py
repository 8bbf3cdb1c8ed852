"""High-utility sequential rule mining.

Discovers all totally ordered sequential rules whose utility and
confidence clear exact rational thresholds, using utility-table
projection, utility upper-bound pruning, and one-pass confidence-guided
cut emission, with a brute-force reference miner for verification.

The package root exports the pipeline (load, mine, verify, generate,
write), its types and its errors. The search's own steps (the utility
table, the path table, its scans, the bounds) stay in their modules.
"""

from .dataio import (
    ParseError,
    dedup_max_utility,
    format_rule,
    load_database,
    parse_native,
    parse_spmf,
    write_native,
    write_rules,
    write_stats,
)
from .datagen import GenParams, generate
from .miner import VARIANTS, MiningConfig, MiningStats, WorkerError, mine
from .model import (
    InvariantError,
    ItemTable,
    Rule,
    Sequence,
    SequenceDatabase,
    Threshold,
    build_database,
)
from .oracle import OracleConfig, oracle_mine

__version__ = "0.1.0"

__all__ = [
    "GenParams",
    "InvariantError",
    "ItemTable",
    "MiningConfig",
    "MiningStats",
    "OracleConfig",
    "ParseError",
    "Rule",
    "Sequence",
    "SequenceDatabase",
    "Threshold",
    "VARIANTS",
    "WorkerError",
    "build_database",
    "dedup_max_utility",
    "format_rule",
    "generate",
    "load_database",
    "mine",
    "oracle_mine",
    "parse_native",
    "parse_spmf",
    "write_native",
    "write_rules",
    "write_stats",
]
