"""Sequence record table: the per-path projection state of the search.

Row i describes the length-i item prefix of the current depth-first
path: every position where the prefix ends in each sequence together
with the best utility over prefix embeddings ending exactly there, the
prefix's support, its exact utility over the database (until_utility),
and the utility bound (rrs) that justified creating the row. A single
stored end position per sequence would lose embeddings, so rows keep all
of them.

Extension scanning walks each occurrence sequence exactly once, forward
from the earliest end position. A running maximum over the best prefix
utilities whose end positions lie strictly before the scan point gives,
at each later position q, both the best extended-prefix utility
(running + u(q)) and the rrs contribution (running + rru(q)). Scanning
from the earliest end position loses no extension: any later position
extends at least the embedding ending there.

The scan is the miner's hot path, so it runs in two phases: phase one
aggregates support, until_utility, and rrs per candidate item into
reusable epoch-stamped arrays without materializing anything; phase two
rebuilds the per-sequence occurrence entries only for candidates that
survive the caller's utility gate, reading each survivor's positions
from the utility table's item-major index (item -> sid -> positions).
Ungated callers simply materialize every candidate.

One table holds the path the search is growing, and the miner reuses it
from one top-level item to the next; the utility table it reads is
immutable.
"""

from bisect import bisect_right
from dataclasses import dataclass

from .model import InvariantError, Threshold
from .ult import UtilityLinkedTable


@dataclass(slots=True)
class SeqOccurrences:
    """End positions of the current prefix within one sequence.

    entries is ascending in position; each entry pairs a 1-based end
    position with the best prefix utility over embeddings ending exactly
    there.
    """

    sid: int
    entries: list[tuple[int, int]]


@dataclass(slots=True)
class SrtRow:
    item: int
    occurrences: list[SeqOccurrences]
    support: int
    until_utility: int
    rrs: int


class _ScanScratch:
    """Reusable per-path buffers, epoch-stamped so they never need clearing."""

    __slots__ = (
        "size",
        "scan_stamp",
        "seq_stamp",
        "glob_ep",
        "seq_ep",
        "sup",
        "until",
        "rrs",
        "rows_by_item",
        "seq_best",
        "seq_bound",
        "order",
        "seq_touched",
    )

    def __init__(self, size: int) -> None:
        self.size = size
        self.scan_stamp = 0
        self.seq_stamp = 0
        self.glob_ep = [0] * size
        self.seq_ep = [0] * size
        self.sup = [0] * size
        self.until = [0] * size
        self.rrs = [0] * size
        self.rows_by_item: list = [None] * size
        self.seq_best = [0] * size
        self.seq_bound = [0] * size
        self.order: list[int] = []
        self.seq_touched: list[int] = []


class SequenceRecordTable:
    """Stack of rows for one depth-first path."""

    __slots__ = ("rows", "item_set", "scratch")

    def __init__(self) -> None:
        self.rows: list[SrtRow] = []
        self.item_set: set[int] = set()
        self.scratch: _ScanScratch | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def push_row(self, row: SrtRow) -> None:
        # Violations here are miner bugs, never data conditions.
        if row.item in self.item_set:
            raise InvariantError("duplicate item pushed onto path")
        if self.rows and row.support > self.rows[-1].support:
            raise InvariantError("support monotonicity violated")
        self.rows.append(row)
        self.item_set.add(row.item)

    def pop_row(self) -> SrtRow:
        if not self.rows:
            raise InvariantError("pop from empty table")
        row = self.rows.pop()
        self.item_set.discard(row.item)
        return row


def init_row(ult: UtilityLinkedTable, item: int) -> SrtRow:
    """Length-1 row: every occurrence of the item, from the table's item index.

    Each occurrence's best prefix utility is its own utility; the row
    bound is the header's rru sum.
    """
    header = ult.header_for(item)
    if header is None:
        raise KeyError(f"item {item} has no header")
    seq_utils = ult.seq_utils
    occurrences: list[SeqOccurrences] = []
    until = 0
    for sid, positions in ult.item_positions[item].items():
        utils_s = seq_utils[sid]
        entries = []
        best = 0
        for k in positions:
            u = utils_s[k]
            entries.append((k + 1, u))
            if u > best:
                best = u
        until += best
        occurrences.append(SeqOccurrences(sid, entries))
    return SrtRow(item, occurrences, len(occurrences), until, header.rru_sum)


def _scan(
    ult: UtilityLinkedTable, srt: SequenceRecordTable, minutil: Threshold | None
) -> tuple[list[SrtRow], int]:
    last = srt.rows[-1]
    path_items = srt.item_set
    scratch = srt.scratch
    if scratch is None or scratch.size < ult.n_item_ids:
        scratch = srt.scratch = _ScanScratch(ult.n_item_ids)
    scratch.scan_stamp += 1
    scan_stamp = scratch.scan_stamp
    glob_ep = scratch.glob_ep
    seq_ep = scratch.seq_ep
    g_sup = scratch.sup
    g_until = scratch.until
    g_rrs = scratch.rrs
    g_rows = scratch.rows_by_item
    s_best = scratch.seq_best
    s_bound = scratch.seq_bound
    order = scratch.order
    order.clear()
    touched = scratch.seq_touched
    seq_items = ult.seq_items
    seq_utils = ult.seq_utils
    seq_rrus = ult.seq_rrus

    # Phase one: aggregate per candidate item. Between two consecutive end
    # positions the running best is constant, so the walk goes segment by
    # segment; a 1-based entry position doubles as the 0-based index of
    # the first node after it.
    for occ in last.occurrences:
        sid = occ.sid
        entries = occ.entries
        items_s = seq_items[sid]
        n = len(items_s)
        start = entries[0][0]
        if start >= n:
            continue
        utils_s = seq_utils[sid]
        rrus_s = seq_rrus[sid]
        scratch.seq_stamp += 1
        seq_stamp = scratch.seq_stamp
        touched.clear()
        run = entries[0][1]
        m = len(entries)
        ei = 1
        while True:
            stop = entries[ei][0] if ei < m else n
            if start < stop:
                for it, u, rr in zip(
                    items_s[start:stop], utils_s[start:stop], rrus_s[start:stop]
                ):
                    if it in path_items:
                        continue
                    if seq_ep[it] != seq_stamp:
                        seq_ep[it] = seq_stamp
                        touched.append(it)
                        s_best[it] = run + u
                        s_bound[it] = run + rr
                    else:
                        v = run + u
                        if v > s_best[it]:
                            s_best[it] = v
                        v = run + rr
                        if v > s_bound[it]:
                            s_bound[it] = v
            if ei >= m:
                break
            b = entries[ei][1]
            if b > run:
                run = b
            start = entries[ei][0]
            ei += 1
        for it in touched:
            if glob_ep[it] != scan_stamp:
                glob_ep[it] = scan_stamp
                order.append(it)
                g_sup[it] = 1
                g_until[it] = s_best[it]
                g_rrs[it] = s_bound[it]
                g_rows[it] = [occ]
            else:
                g_sup[it] += 1
                g_until[it] += s_best[it]
                g_rrs[it] += s_bound[it]
                g_rows[it].append(occ)

    # Phase two: gate, then rebuild occurrence entries only for survivors.
    out: list[SrtRow] = []
    pruned = 0
    gated = minutil is not None
    if gated:
        num = minutil.numerator
        den = minutil.denominator
    item_positions = ult.item_positions
    for it in order:
        rrs = g_rrs[it]
        if gated and rrs * den < num:
            pruned += 1
            g_rows[it] = None
            continue
        positions_by_sid = item_positions[it]
        occ_rows: list[SeqOccurrences] = []
        for occ in g_rows[it]:
            sid = occ.sid
            entries = occ.entries
            frontier = entries[0][0]
            pos_idx = positions_by_sid[sid]
            utils_s = seq_utils[sid]
            run = -1
            ei = 0
            m = len(entries)
            ents_out: list[tuple[int, int]] = []
            for j in pos_idx[bisect_right(pos_idx, frontier - 1) :]:
                q = j + 1
                while ei < m and entries[ei][0] < q:
                    b = entries[ei][1]
                    if b > run:
                        run = b
                    ei += 1
                ents_out.append((q, run + utils_s[j]))
            occ_rows.append(SeqOccurrences(sid, ents_out))
        g_rows[it] = None
        out.append(SrtRow(it, occ_rows, g_sup[it], g_until[it], rrs))
    return out, pruned


def scan_extensions(ult: UtilityLinkedTable, srt: SequenceRecordTable) -> list[SrtRow]:
    """Find every one-item extension of the current path.

    Returns ready rows in first-encounter order; each row's item and rrs
    name the extension and its bound. Items already on the path are
    skipped because rules cannot repeat items.
    """
    return _scan(ult, srt, None)[0]


def scan_extensions_gated(
    ult: UtilityLinkedTable, srt: SequenceRecordTable, minutil: Threshold
) -> tuple[list[SrtRow], int]:
    """scan_extensions, but candidates whose rrs falls below minutil are
    dropped before their rows are materialized; returns the drop count."""
    return _scan(ult, srt, minutil)
