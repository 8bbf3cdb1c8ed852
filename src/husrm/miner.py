"""End-to-end mining: depth-first path growth with bound-based pruning
and confidence-guided cut emission.

The pipeline is: optional duplicate removal, optional early item
pruning, one utility-table build (with the EUCP successor sets at
minutil, so every scan walks only the projected views of the path),
then a depth-first walk over item prefixes. Every path push emits all
the rules that path can support in one pass: the path's support column
is non-increasing, so a binary search finds the leftmost cut whose
antecedent support clears the confidence bar, and every cut from there
to the end shares the path utility computed once. No per-rule utility
recomputation ever happens.

The walk is serial and iterative: one loop keeps a stack of child-row
iterators beside the path table, so path depth is bounded by memory, not
by the interpreter's recursion limit.

A child passes two gates before it is pushed: the paper's rrs bound,
checked on the aggregates of the first scan phase, then the view bound
(see srt), checked once the child's occurrences and view are rebuilt.
Ablation switches mirror the benchmark variant names: rscn disables the
early item prune, rscp runs both extension gates at minutil 0, where
they drop nothing, rscr swaps the reduced suffix bound for the raw one.
Every variant runs the same scan, and the successor sets are on in every
variant; the rrs_prunes counter counts only the extensions they let
through that the rrs gate then drops, and view_prunes the ones the view
bound drops after that.
"""

import time
from dataclasses import dataclass
from typing import Callable, Sequence as Seq

from .bounds import prune_unpromising
from .dataio import dedup_max_utility
from .model import (
    Rule,
    SequenceDatabase,
    Threshold,
    check_minconf,
    compare_at_least,
    confidence_at_least,
    gc_paused,
)
from .srt import (
    SequenceRecordTable,
    SrtRow,
    init_row,
    scan_extensions,
    scan_extensions_gated,
)
from .ult import UtilityTable, build_ult

RuleSink = Callable[[Rule], None]

VARIANTS: dict[str, dict[str, bool]] = {
    "rsc": {},
    "rscn": {"use_seu_prune": False},
    "rscp": {"use_rrs_prune": False},
    "rscr": {"use_rru": False},
}


@dataclass(slots=True)
class MiningConfig:
    """Thresholds plus ablation knobs.

    minutil must already be the absolute threshold; when the caller
    starts from a ratio delta it multiplies by the total utility of the
    original database (before any dedup or pruning) first.
    """

    minutil: Threshold
    minconf: Threshold
    use_seu_prune: bool = True
    use_rrs_prune: bool = True
    use_rru: bool = True
    dedup: bool = False
    seu_distinct_max: bool = True
    # Mining is serial; only 1 is accepted. Kept because the benchmark's
    # job script still passes threads=1; its next change drops the field.
    threads: int = 1

    def __post_init__(self) -> None:
        check_minconf(self.minconf)
        if self.threads != 1:
            raise ValueError("threads must be 1: mining is serial")


def variant_config(name: str, minutil: Threshold, minconf: Threshold, **overrides) -> MiningConfig:
    """Config for one named benchmark variant; ValueError for an unknown name."""
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}")
    fields = dict(VARIANTS[name])
    fields.update(overrides)
    return MiningConfig(minutil=minutil, minconf=minconf, **fields)


@dataclass(slots=True)
class MiningStats:
    sequences: int = 0
    distinct_items: int = 0
    items_after_pruning: int = 0
    minutil: Threshold | None = None
    candidates: int = 0
    rrs_prunes: int = 0
    rules: int = 0
    runtime_ms: int = 0
    view_prunes: int = 0


def find_cut_start(supports: Seq[int], sup_n: int, minconf: Threshold) -> int:
    """Smallest 1-based k with sup_n / supports[k] >= minconf.

    supports must be non-increasing, which makes the predicate monotone
    in k, so a binary search suffices. Always returns an index within
    1..len(supports) because sup_n / supports[-1] >= minconf whenever
    supports ends at sup_n and minconf <= 1.
    """
    num, den = minconf.numerator, minconf.denominator
    lhs = sup_n * den
    lo, hi = 1, len(supports)
    while lo < hi:
        mid = (lo + hi) // 2
        if lhs >= supports[mid - 1] * num:
            hi = mid
        else:
            lo = mid + 1
    return lo


def rule_produce(srt: SequenceRecordTable, cfg: MiningConfig, sink: RuleSink) -> int:
    """Emit every rule of the current path in one pass; returns the count.

    Gate: the path utility must reach minutil and the last row's support
    must reach minconf against the second-to-last row, the easiest
    antecedent. All emitted rules share the path's utility and support;
    only the antecedent support varies with the cut.
    """
    rows = srt.rows
    n = len(rows)
    if n < 2:
        return 0
    last = rows[-1]
    if not compare_at_least(last.until_utility, cfg.minutil):
        return 0
    if not confidence_at_least(last.support, rows[-2].support, cfg.minconf):
        return 0
    supports = [row.support for row in rows]
    k = find_cut_start(supports, last.support, cfg.minconf)
    items = [row.item for row in rows]
    for j in range(k, n):
        sink(
            Rule(
                tuple(items[:j]),
                tuple(items[j:]),
                last.until_utility,
                last.support,
                supports[j - 1],
            )
        )
    return n - k


def _extensions(
    ult: UtilityTable, srt: SequenceRecordTable, cfg: MiningConfig, stats: MiningStats
) -> list[SrtRow]:
    """Child rows of the current path, gated on rrs and the view bound at
    minutil, or at 0 under rscp; the view-bound drops accumulate on srt."""
    if cfg.use_rrs_prune:
        rows, pruned = scan_extensions_gated(ult, srt, cfg.minutil)
        stats.rrs_prunes += pruned
        return rows
    return scan_extensions(ult, srt)


def srt_growth(
    ult: UtilityTable,
    srt: SequenceRecordTable,
    row: SrtRow,
    cfg: MiningConfig,
    sink: RuleSink,
    stats: MiningStats,
) -> list[SrtRow]:
    """Push one extension row, emit its rules, return its child rows.

    The caller pops the row once every child has been grown.
    """
    srt.push_row(row)
    stats.candidates += 1
    rule_produce(srt, cfg, sink)
    return _extensions(ult, srt, cfg, stats)


@gc_paused()
def mine(db: SequenceDatabase, cfg: MiningConfig) -> tuple[list[Rule], MiningStats]:
    """Mine every totally ordered rule meeting both thresholds.

    Output order is deterministic: depth-first over the utility table's
    items in first-appearance order, children in scan order, cuts left
    to right.
    Cyclic garbage collection is paused for the call (see gc_paused).
    """
    start = time.perf_counter()
    stats = MiningStats(minutil=cfg.minutil)
    stats.sequences = len(db.sequences)
    stats.distinct_items = len(db.distinct_items())
    work = dedup_max_utility(db) if cfg.dedup else db
    if cfg.use_seu_prune:
        work = prune_unpromising(work, cfg.minutil, distinct_max=cfg.seu_distinct_max)
    ult = build_ult(work, use_rru=cfg.use_rru, minutil=cfg.minutil)
    stats.items_after_pruning = len(ult.item_positions)
    rules: list[Rule] = []
    sink = rules.append
    srt = SequenceRecordTable()
    for item in ult.item_positions:
        srt.push_row(init_row(ult, item))
        # pending[d] yields the not yet grown children of srt.rows[d].
        pending = [iter(_extensions(ult, srt, cfg, stats))]
        while pending:
            row = next(pending[-1], None)
            if row is None:
                pending.pop()
                srt.pop_row()
            else:
                pending.append(iter(srt_growth(ult, srt, row, cfg, sink, stats)))
    stats.view_prunes = srt.view_prunes
    stats.rules = len(rules)
    stats.runtime_ms = int((time.perf_counter() - start) * 1000)
    return rules, stats
