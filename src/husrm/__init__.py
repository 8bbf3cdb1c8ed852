"""High-utility sequential rule mining.

Discovers all totally ordered sequential rules whose utility and
confidence clear exact rational thresholds, using utility-table
projection, utility upper-bound pruning, and one-pass confidence-guided
cut emission, with a brute-force reference miner for verification.
"""

from .bounds import prune_unpromising, seu_per_item
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
from .miner import (
    VARIANTS,
    MiningConfig,
    MiningStats,
    WorkerError,
    find_cut_start,
    mine,
    rule_produce,
    srt_growth,
)
from .model import (
    Event,
    InvariantError,
    ItemTable,
    Rule,
    Sequence,
    SequenceDatabase,
    Threshold,
    build_database,
    compare_at_least,
    confidence_at_least,
)
from .oracle import (
    OracleConfig,
    max_embedding_utility,
    oracle_mine,
    support_of,
)
from .srt import SeqOccurrences, SequenceRecordTable, SrtRow, init_row, scan_extensions
from .ult import UtilityTable, build_ult

__version__ = "0.1.0"

__all__ = [
    "Event",
    "GenParams",
    "InvariantError",
    "ItemTable",
    "MiningConfig",
    "MiningStats",
    "OracleConfig",
    "ParseError",
    "Rule",
    "SeqOccurrences",
    "Sequence",
    "SequenceDatabase",
    "SequenceRecordTable",
    "SrtRow",
    "Threshold",
    "UtilityTable",
    "VARIANTS",
    "WorkerError",
    "build_database",
    "build_ult",
    "compare_at_least",
    "confidence_at_least",
    "dedup_max_utility",
    "find_cut_start",
    "format_rule",
    "generate",
    "init_row",
    "load_database",
    "max_embedding_utility",
    "mine",
    "oracle_mine",
    "parse_native",
    "parse_spmf",
    "prune_unpromising",
    "rule_produce",
    "scan_extensions",
    "seu_per_item",
    "srt_growth",
    "support_of",
    "write_native",
    "write_rules",
    "write_stats",
]
