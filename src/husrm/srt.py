"""Sequence record table: the per-path projection state of the search.

Row i describes the length-i item prefix of the current depth-first
path: every position where the prefix ends in each sequence together
with the best utility over prefix embeddings ending exactly there, the
prefix's support, its exact utility over the database (until_utility),
and the utility bound (rrs) that justified creating the row. A single
stored end position per sequence would lose embeddings, so rows keep all
of them.

Extension scanning walks each occurrence's projected view: the positions
after its earliest end whose item is still in the path's candidate set
C. C holds the items that may extend the path and still head a rule:
C(x) = successors[x] for a length-1 path and C(P.y) = C(P) & successors[y]
(the utility table's EUCP successor sets), so no path item is ever in
it. A running maximum over the best prefix utilities whose end positions
lie strictly before the scan point gives, at each later position q, both
the best extended-prefix utility (running + u(q)) and the rrs
contribution (running + rru(q)). Scanning from the earliest end position
loses no extension: any later position extends at least the embedding
ending there.

The scan is the miner's hot path, so it runs in two phases. Phase one
walks the views once and aggregates support, until_utility and rrs per
candidate item into reusable stamped arrays, folding an item's
per-sequence best into the totals when the item turns up in a later
sequence. Phase two rebuilds the occurrence entries only for candidates
that survive the caller's utility gate, finding their sequences through
the utility table's item index (item -> sid -> positions), and builds
each child view by filtering the parent's view, from the child's first
end on, with the child's successor set.

Every scan gates each candidate twice. Before phase two it checks the
paper's rrs bound. After phase two it checks the child's view bound
B = until_utility + the sum of the utilities at the child's view
positions, and drops the child when B falls below minutil. Every
extension of the child that can still reach minutil adds only items of
its candidate set, at distinct positions after the end where the child's
item sits; those positions are all in the child's view, so no such
extension is worth more in a sequence than the sequence's best entry
plus its view sum. B is also at least until_utility, so the child's own
rules are never lost. The sum costs one add per kept view position.
At minutil 0 neither gate can drop a row; scan_extensions scans there,
and so does the rscp ablation.

One table holds the path the search is growing, and the miner reuses it
from one top-level item to the next, so the table also keeps the
search's counters; the utility table it reads is immutable.
"""

from bisect import bisect_left
from dataclasses import dataclass

from .model import InvariantError, Threshold
from .ult import UtilityTable


@dataclass(slots=True)
class SeqOccurrences:
    """End positions of the current prefix within one sequence, and its view.

    entries is ascending in position; each entry pairs a 1-based end
    position with the best prefix utility over embeddings ending exactly
    there. view holds, ascending, the 0-based positions after the first
    end whose item is in the path's candidate set: the only positions a
    scan of this occurrence visits. It is a tuple, which the garbage
    collector stops tracking, and empty views share the empty tuple.
    """

    sid: int
    entries: list[tuple[int, int]]
    view: tuple[int, ...]


@dataclass(slots=True)
class SrtRow:
    item: int
    occurrences: list[SeqOccurrences]
    support: int
    until_utility: int
    rrs: int


class _ScanScratch:
    """Reusable per-item buffers, stamped so they never need clearing.

    seq_stamp counts the occurrence sequences scanned so far; seq_ep[it]
    is the stamp of the last sequence in which item it was seen, and
    seq_best / seq_bound its best utility and bound within that sequence.
    """

    __slots__ = (
        "size",
        "seq_stamp",
        "seq_ep",
        "sup",
        "until",
        "rrs",
        "seq_best",
        "seq_bound",
    )

    def __init__(self, size: int) -> None:
        self.size = size
        self.seq_stamp = 0
        self.seq_ep = [0] * size
        self.sup = [0] * size
        self.until = [0] * size
        self.rrs = [0] * size
        self.seq_best = [0] * size
        self.seq_bound = [0] * size


class SequenceRecordTable:
    """Stack of rows for one depth-first path, and the search's counters.

    prefixes[d] is the tuple of the path's first d + 1 items. Each push
    builds one from its parent's and each pop drops it, so a prefix
    lives exactly as long as its row. The rules cut from the path share
    these tuples as antecedents, so equal antecedents are one object.
    consequents interns the rule consequents emitted on this table
    (each maps to itself); the miner clears it once a top-level item's
    rules are written, so equal consequents of one item are one object.

    Over every path grown on this table: candidates counts the rows the
    miner pushed as extensions (top-level rows are not candidates),
    rrs_prunes the scanned candidates whose rrs fell below minutil, and
    view_prunes the ones that passed the rrs gate but whose view bound
    fell below minutil.
    """

    __slots__ = (
        "rows",
        "prefixes",
        "consequents",
        "scratch",
        "candidates",
        "rrs_prunes",
        "view_prunes",
    )

    def __init__(self) -> None:
        self.rows: list[SrtRow] = []
        self.prefixes: list[tuple[int, ...]] = []
        self.consequents: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.scratch: _ScanScratch | None = None
        self.candidates = 0
        self.rrs_prunes = 0
        self.view_prunes = 0

    def __len__(self) -> int:
        return len(self.rows)

    def push_row(self, row: SrtRow) -> None:
        # Violations here are miner bugs, never data conditions.
        prefix = self.prefixes[-1] if self.prefixes else ()
        if row.item in prefix:
            raise InvariantError("duplicate item pushed onto path")
        if self.rows and row.support > self.rows[-1].support:
            raise InvariantError("support monotonicity violated")
        self.rows.append(row)
        self.prefixes.append(prefix + (row.item,))

    def pop_row(self) -> SrtRow:
        if not self.rows:
            raise InvariantError("pop from empty table")
        self.prefixes.pop()
        return self.rows.pop()


def init_row(ult: UtilityTable, item: int) -> SrtRow:
    """Length-1 row: every occurrence of the item, from the table's item index.

    Each occurrence's best prefix utility is its own utility and its view
    keeps the positions after the first occurrence whose item is a
    successor of this one (none, for an item the miner never grows). The
    row bound sums, over the item's sequences, its largest stored rru
    there. An item the table does not hold raises KeyError.
    """
    seq_items = ult.seq_items
    seq_utils = ult.seq_utils
    seq_rrus = ult.seq_rrus
    succ = ult.successors[item]
    occurrences: list[SeqOccurrences] = []
    until = 0
    rrs = 0
    for sid, positions in ult.item_positions[item].items():
        utils_s = seq_utils[sid]
        rrus_s = seq_rrus[sid]
        entries = []
        best = 0
        bound = 0
        for k in positions:
            u = utils_s[k]
            entries.append((k + 1, u))
            if u > best:
                best = u
            r = rrus_s[k]
            if r > bound:
                bound = r
        until += best
        rrs += bound
        items_s = seq_items[sid]
        view = tuple([k for k in range(positions[0] + 1, len(items_s)) if items_s[k] in succ])
        occurrences.append(SeqOccurrences(sid, entries, view))
    return SrtRow(item, occurrences, len(occurrences), until, rrs)


def scan_extensions_gated(
    ult: UtilityTable, srt: SequenceRecordTable, minutil: Threshold
) -> tuple[list[SrtRow], int]:
    """Find the one-item extensions of the current path that can reach minutil.

    Returns ready rows in first-encounter order, and the count of
    candidates dropped because their rrs fell below minutil before their
    rows were materialized; that count is also added to srt.rrs_prunes.
    Materialized rows whose view bound falls below minutil are dropped
    after, and counted in srt.view_prunes.
    Each row's item and rrs name the extension and its bound. Items
    already on the path (rules cannot repeat items) and items the
    successor sets block are not in the views, so they are never found.
    """
    last = srt.rows[-1]
    scratch = srt.scratch
    if scratch is None or scratch.size < ult.n_item_ids:
        scratch = srt.scratch = _ScanScratch(ult.n_item_ids)
    seq_ep = scratch.seq_ep
    g_sup = scratch.sup
    g_until = scratch.until
    g_rrs = scratch.rrs
    s_best = scratch.seq_best
    s_bound = scratch.seq_bound
    seq_items = ult.seq_items
    seq_utils = ult.seq_utils
    seq_rrus = ult.seq_rrus
    # Stamps only grow: an item stamped at or below base is new to this
    # scan, one stamped between base and the current sequence's stamp
    # still has that earlier sequence's best and bound to fold in.
    base = stamp = scratch.seq_stamp
    order: list[int] = []

    # Phase one: aggregate per candidate item over the views. Between two
    # consecutive end positions the running best is constant, so the walk
    # goes segment by segment; a 1-based entry position doubles as the
    # 0-based index of the first position after it.
    occurrences = last.occurrences
    for occ in occurrences:
        view = occ.view
        if not view:
            continue
        sid = occ.sid
        items_s = seq_items[sid]
        utils_s = seq_utils[sid]
        rrus_s = seq_rrus[sid]
        stamp += 1
        entries = occ.entries
        run = entries[0][1]
        m = len(entries)
        n = len(view)
        lo = 0
        ei = 1
        while True:
            hi = bisect_left(view, entries[ei][0], lo) if ei < m else n
            for k in view[lo:hi] if lo or hi < n else view:
                it = items_s[k]
                v = run + utils_s[k]
                r = run + rrus_s[k]
                seen = seq_ep[it]
                if seen == stamp:
                    if v > s_best[it]:
                        s_best[it] = v
                    if r > s_bound[it]:
                        s_bound[it] = r
                    continue
                if seen > base:
                    g_sup[it] += 1
                    g_until[it] += s_best[it]
                    g_rrs[it] += s_bound[it]
                else:
                    order.append(it)
                    g_sup[it] = 1
                    g_until[it] = 0
                    g_rrs[it] = 0
                seq_ep[it] = stamp
                s_best[it] = v
                s_bound[it] = r
            if hi == n:
                break
            b = entries[ei][1]
            if b > run:
                run = b
            lo = hi
            ei += 1
    scratch.seq_stamp = stamp
    for it in order:
        g_until[it] += s_best[it]
        g_rrs[it] += s_bound[it]

    # Phase two: gate on rrs, then rebuild occurrence entries and views
    # only for survivors, finding their sequences through the item index,
    # and gate again on the view bound. The walk over the parent's
    # occurrences stops at the sup-th one found. Summed over sequences,
    # the best new entry utilities are the item's until_utility, so
    # only the view utilities (tail) need adding up here.
    out: list[SrtRow] = []
    pruned = 0
    view_pruned = 0
    num = minutil.numerator
    den = minutil.denominator
    item_positions = ult.item_positions
    successors = ult.successors
    for it in order:
        rrs = g_rrs[it]
        if rrs * den < num:
            pruned += 1
            continue
        positions_by_sid = item_positions[it]
        succ = successors[it]
        sup = g_sup[it]
        tail = 0
        occ_rows: list[SeqOccurrences] = []
        for occ in occurrences:
            sid = occ.sid
            pos_idx = positions_by_sid.get(sid)
            if pos_idx is None:
                continue
            entries = occ.entries
            lo = bisect_left(pos_idx, entries[0][0])
            if lo == len(pos_idx):
                continue
            utils_s = seq_utils[sid]
            run = -1
            ei = 0
            m = len(entries)
            ents_out: list[tuple[int, int]] = []
            for j in pos_idx[lo:]:
                q = j + 1
                while ei < m and entries[ei][0] < q:
                    b = entries[ei][1]
                    if b > run:
                        run = b
                    ei += 1
                ents_out.append((q, run + utils_s[j]))
            child: list[int] = []
            if succ:
                view = occ.view
                items_s = seq_items[sid]
                for k in view[bisect_left(view, pos_idx[lo] + 1) :]:
                    if items_s[k] in succ:
                        child.append(k)
                        tail += utils_s[k]
            occ_rows.append(SeqOccurrences(sid, ents_out, tuple(child)))
            if len(occ_rows) == sup:
                break
        until = g_until[it]
        if (until + tail) * den < num:
            view_pruned += 1
            continue
        out.append(SrtRow(it, occ_rows, sup, until, rrs))
    srt.rrs_prunes += pruned
    srt.view_prunes += view_pruned
    return out, pruned


def scan_extensions(ult: UtilityTable, srt: SequenceRecordTable) -> list[SrtRow]:
    """Every one-item extension of the current path in its candidate set:
    scan_extensions_gated at minutil 0, where neither gate drops a row."""
    return scan_extensions_gated(ult, srt, Threshold(0, 1))[0]
