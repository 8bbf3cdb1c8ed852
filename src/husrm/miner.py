"""End-to-end mining: depth-first path growth with bound-based pruning
and confidence-guided cut emission.

The pipeline is: optional early item pruning, one utility-table build
(with the EUCP successor sets at minutil, so every scan walks only the
projected views of the path), then a depth-first walk over item
prefixes. Every path push emits all the rules that path can support in
one pass: the path's support column is non-increasing, so a binary
search finds the leftmost cut whose antecedent support clears the
confidence bar, and every cut from there to the end shares the path
utility computed once. No per-rule utility recomputation ever happens.

Each top-level item is grown by one iterative loop that keeps a stack
of child-row iterators beside the path table, so path depth is bounded
by memory, not by the interpreter's recursion limit. Only an item with
successors has a search (any other emits no rule and adds no count),
and the searched items are independent once the table is built, so
mine maps each to one of min(usable CPUs, searched items) bins before
any search starts: by descending count of sequences, ties in
first-appearance order, each to the least-loaded bin. Every bin, the
caller's included, writes its rules item by item as plain marshal
fields to its own unnamed temporary file, and its counters last. The
calling process grows bin 0 and a forked child grows each other bin,
reading the table the fork shared copy-on-write. The caller then reads
every file back, builds each Rule once in first-appearance item order,
and sums the counters, so the rules and stats equal a one-bin run's.
Mining therefore needs a writable temporary directory, even in one bin.
A child whose parent is gone exits within 50 ms, mid-item if need be.
Mining stays in one bin (no fork) on one CPU, without os.fork or
os.sched_getaffinity, while another thread runs, and for a table below
PARALLEL_MIN_EVENTS events.

A child passes two gates before it is pushed: the paper's rrs bound,
checked on the aggregates of the first scan phase, then the view bound
(see srt), checked once the child's occurrences and view are rebuilt.
MiningConfig.variant names the benchmark variant: rscn disables the
early item prune, rscp runs both extension gates at minutil 0, where
they drop nothing, rscr swaps the reduced suffix bound for the raw one.
Every variant runs the same scan, and the successor sets are on in every
variant; the rrs_prunes counter counts only the extensions they let
through that the rrs gate then drops, and view_prunes the ones the view
bound drops after that.

Each bin grows its paths on one SequenceRecordTable, which holds the
search's counters: srt_growth counts candidates on it and the scan adds
both gates' drops to it. The bin's counters record is that table's
three counters; mine sums the records into its MiningStats, the only
one a mine builds.
"""

import marshal
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from itertools import starmap
from typing import IO, Any, Callable, ClassVar, NoReturn, Sequence as Seq

from .bounds import prune_unpromising
# Not called here; kept because the benchmark's tracer still rebinds it.
from .dataio import dedup_max_utility  # noqa: F401
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

# A rule as plain fields, in Rule's order: antecedent, consequent,
# utility, support, antecedent_support. The search emits these; mine
# builds each Rule from them once.
RuleFields = tuple[tuple[int, ...], tuple[int, ...], int, int, int]
RuleSink = Callable[[RuleFields], None]

VARIANTS = ("rsc", "rscn", "rscp", "rscr")

# Below this many events in the utility table, mining stays in one
# process. Forking a second worker made a whole mine 6-16 ms slower
# where the search was trivial (the copy-on-write faults of both
# processes, the child's exit and the wait), on 2 CPUs. Generated cuts
# at the benchmark workloads' minutil broke even between 1,898 events
# (81 ms serial) and 3,881 (485 ms serial, 314 ms forked).
PARALLEL_MIN_EVENTS = 2000


class WorkerError(RuntimeError):
    """A forked mining worker died without reporting an exception."""


@dataclass(slots=True)
class MiningConfig:
    """Thresholds plus the benchmark variant to run.

    minutil must already be the absolute threshold; when the caller
    starts from a ratio delta it multiplies by the total utility of the
    database as loaded (before any dedup or pruning) first.
    """

    minutil: Threshold
    minconf: Threshold
    variant: str = "rsc"
    # Only 1 is accepted: mine sizes its worker pool from the usable CPUs.
    # Kept because the benchmark's job script still passes threads=1; its
    # next change drops the field.
    threads: int = 1
    # Read-only, as the seu prune has one form. Kept because the
    # benchmark's job script still reads it; its next change drops it.
    seu_distinct_max: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {sorted(VARIANTS)}")
        check_minconf(self.minconf)
        if self.threads != 1:
            raise ValueError("threads must be 1: mine sizes its worker pool from the usable CPUs")

    @property
    def use_seu_prune(self) -> bool:
        return self.variant != "rscn"

    @property
    def use_rrs_prune(self) -> bool:
        return self.variant != "rscp"

    @property
    def use_rru(self) -> bool:
        return self.variant != "rscr"


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
    """Emit the fields of every rule of the current path in one pass;
    returns the count.

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
            (
                tuple(items[:j]),
                tuple(items[j:]),
                last.until_utility,
                last.support,
                supports[j - 1],
            )
        )
    return n - k


def _extensions(ult: UtilityTable, srt: SequenceRecordTable, cfg: MiningConfig) -> list[SrtRow]:
    """Child rows of the current path, gated on rrs and the view bound at
    minutil, or at 0 under rscp; both gates' drops accumulate on srt."""
    if cfg.use_rrs_prune:
        return scan_extensions_gated(ult, srt, cfg.minutil)[0]
    return scan_extensions(ult, srt)


def srt_growth(
    ult: UtilityTable, srt: SequenceRecordTable, row: SrtRow, cfg: MiningConfig, sink: RuleSink
) -> list[SrtRow]:
    """Push one extension row, count it as a candidate on srt, emit its
    rules, return its child rows.

    The caller pops the row once every child has been grown.
    """
    srt.push_row(row)
    srt.candidates += 1
    rule_produce(srt, cfg, sink)
    return _extensions(ult, srt, cfg)


# Records are length-prefixed so that _get reads each one with a single
# read and decodes it from bytes: marshal.load on the file object issues
# one readinto per field (23.5 ms against 0.8 ms on a chunk of 41,000
# rule-field tuples).
def _put(out: IO[bytes], obj: object) -> None:
    blob = marshal.dumps(obj)
    out.write(len(blob).to_bytes(8, "little"))
    out.write(blob)


def _get(src: IO[bytes]) -> Any:
    size = int.from_bytes(src.read(8), "little")
    return marshal.loads(src.read(size))


def _mine_bin(out: IO[bytes], ult: UtilityTable, items: list[int], cfg: MiningConfig) -> None:
    """Grow a bin's top-level items in turn on one path table, writing
    one record of rule fields per item to out, then the table's
    (candidates, rrs_prunes, view_prunes) record.

    The caller runs this for bin 0 and each worker for its own bin, on
    items that have successors (see _split).
    """
    srt = SequenceRecordTable()
    for item in items:
        chunk: list[RuleFields] = []
        sink = chunk.append
        srt.push_row(init_row(ult, item))
        # pending[d] yields the not yet grown children of srt.rows[d].
        pending = [iter(_extensions(ult, srt, cfg))]
        while pending:
            row = next(pending[-1], None)
            if row is None:
                pending.pop()
                srt.pop_row()
            else:
                pending.append(iter(srt_growth(ult, srt, row, cfg, sink)))
        _put(out, chunk)
    _put(out, (srt.candidates, srt.rrs_prunes, srt.view_prunes))


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where fork or the affinity call is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _split(ult: UtilityTable) -> dict[int, int]:
    """The bin of each searched item (one with successors), in
    first-appearance order; bin 0 is the caller's.

    Items go longest-first, by the number of sequences holding them with
    ties in first-appearance order, each to the least-loaded bin (the
    lowest-numbered on a tie). The split depends on the table and the
    CPU count alone, so every run on one machine mines the same items in
    the same process.
    """
    positions = ult.item_positions
    bin_of = {item: 0 for item in positions if ult.successors[item]}
    n = min(_usable_cpus(), len(bin_of))
    if n < 2 or threading.active_count() > 1 or len(ult) < PARALLEL_MIN_EVENTS:
        return bin_of
    loads = [0] * n
    for item in sorted(bin_of, key=lambda item: len(positions[item]), reverse=True):
        b = loads.index(min(loads))
        bin_of[item] = b
        loads[b] += len(positions[item])
    return bin_of


def _exit_when_orphaned(parent: int) -> NoReturn:
    while os.getppid() == parent:
        time.sleep(0.05)
    os._exit(1)


def _run_worker(
    out: IO[bytes], ult: UtilityTable, items: list[int], cfg: MiningConfig, parent: int
) -> NoReturn:
    """Body of a forked worker: run _mine_bin into out, then leave the process.

    On success out holds what _mine_bin wrote, and the exit status is 0.
    On any exception, interrupts included, out holds only the pickled
    exception and its text, and the status is 1. A daemon thread polls
    the parent's pid every 50 ms, so a worker whose parent died (killed
    without a chance to reap it) exits within that time, even in the
    middle of an item. The worker never returns into the caller's code,
    and os._exit skips the interpreter's teardown and the stdio buffers
    inherited from the parent, which the parent flushes itself.
    """
    import pickle  # here, not at module level: only a failure needs it

    threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()
    code = 1
    try:
        try:
            _mine_bin(out, ult, items, cfg)
            code = 0
        except BaseException as exc:  # reported to the parent, which re-raises it
            out.seek(0)
            out.truncate()
            _put(out, (pickle.dumps(exc), f"{type(exc).__name__}: {exc}"))
        out.flush()
    finally:
        os._exit(code)


def _worker_failure(src: IO[bytes], status: int) -> BaseException:
    """The exception a failed worker reported, or a WorkerError saying how it ended."""
    import pickle
    import signal

    if os.WIFSIGNALED(status):
        return WorkerError(f"mining worker killed by {signal.Signals(os.WTERMSIG(status)).name}")
    src.seek(0)
    try:
        blob, text = _get(src)
    except (EOFError, ValueError, TypeError):
        return WorkerError(f"mining worker exited with status {os.waitstatus_to_exitcode(status)}")
    try:
        return pickle.loads(blob)
    except Exception:
        return WorkerError(text)


def _kill_and_reap(pids: list[int]) -> None:
    if pids:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _mine_bins(
    ult: UtilityTable, bin_of: dict[int, int], cfg: MiningConfig, stats: MiningStats
) -> list[Rule]:
    """Mine bin 0 here and every other bin in a forked worker, each into
    its own temporary file; the rules in first-appearance item order,
    with every bin's counters summed on stats.

    bin_of is _split's map; bin 0 runs even without items. Every file is
    opened before the first fork, so a missing temporary directory fails
    before any worker exists. Every worker is reaped before this returns
    or raises: one that has not finished by then is killed first.
    """
    bins: list[list[int]] = [[] for _ in range(max(bin_of.values(), default=0) + 1)]
    for item, b in bin_of.items():
        bins[b].append(item)
    outs: list[IO[bytes]] = []
    running: list[int] = []
    parent = os.getpid()
    try:
        for _ in bins:
            outs.append(tempfile.TemporaryFile())
        for out, items in zip(outs[1:], bins[1:]):
            pid = os.fork()
            if pid == 0:
                _run_worker(out, ult, items, cfg, parent)
            running.append(pid)
        _mine_bin(outs[0], ult, bins[0], cfg)
        for out in outs[1:]:
            _, status = os.waitpid(running[0], 0)
            del running[0]
            if status != 0:
                raise _worker_failure(out, status)
        for out in outs:
            out.seek(0)
        rules: list[Rule] = []
        for b in bin_of.values():
            rules.extend(starmap(Rule, _get(outs[b])))
        for out in outs:
            candidates, rrs_prunes, view_prunes = _get(out)
            stats.candidates += candidates
            stats.rrs_prunes += rrs_prunes
            stats.view_prunes += view_prunes
        return rules
    finally:
        _kill_and_reap(running)
        for out in outs:
            out.close()


@gc_paused()
def mine(db: SequenceDatabase, cfg: MiningConfig) -> tuple[list[Rule], MiningStats]:
    """Mine every totally ordered rule meeting both thresholds.

    db is mined as given: to mine it deduplicated, pass
    dedup_max_utility(db).

    Output order is deterministic: depth-first over the utility table's
    items in first-appearance order, children in scan order, cuts left
    to right. It does not depend on how the items were split over
    worker processes.
    Cyclic garbage collection is paused for the call (see gc_paused);
    forked workers inherit the pause.
    """
    start = time.perf_counter()
    stats = MiningStats(minutil=cfg.minutil)
    stats.sequences = len(db.sequences)
    stats.distinct_items = len(db.distinct_items())
    work = prune_unpromising(db, cfg.minutil) if cfg.use_seu_prune else db
    ult = build_ult(work, use_rru=cfg.use_rru, minutil=cfg.minutil)
    stats.items_after_pruning = len(ult.item_positions)
    rules = _mine_bins(ult, _split(ult), cfg, stats)
    stats.rules = len(rules)
    stats.runtime_ms = int((time.perf_counter() - start) * 1000)
    return rules, stats
