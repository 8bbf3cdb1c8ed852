"""Sequence record table: the per-path projection state of the search.

Row i describes the length-i item prefix of the current depth-first
path: per sequence holding it (the row's support is their count), the
prefix's end positions that a scan needs (below), each with the best
utility over prefix embeddings ending exactly there; its exact utility
over the database (until_utility); and the bound (rrs) that justified
creating the row. Below row 1 sits the root, the empty prefix, whose
occurrences view whole sequences (see ult). The scan's phases (below)
build every row from its parent's occurrences, top-level rows from the
root's: phase one once per table, phase two once per top-level item.
Phase one over the root groups the sequences by item, and the table
builds its EUCP successor sets at minutil from that grouping (see
bounds.successor_sets): the items that may follow an item on a path
that can still emit a rule. Built at minutil 0 they block nothing.

Extension scanning walks each occurrence's projected view: the positions
after its earliest end whose item is still in the path's candidate set
C. C holds the items that may extend the path and still head a rule:
C(x) = successors[x] for a length-1 path and C(P.y) = C(P) & successors[y]
(the path table's successor sets) less the items the share gate
drops at P (below), so no path item is ever in it. A running maximum
over the best prefix utilities whose end positions lie strictly before
the scan point gives, at each later position q, both the best
extended-prefix utility (running + u(q)) and the rrs contribution
(running + rru(q)). That maximum is always reached at an end worth
strictly more than every earlier one, so rows keep only those ends: a
staircase rising in position and in utility, from the first end to the
sequence's best. Scanning from the earliest end loses no extension: any
later position extends at least the embedding ending there.

Each occurrence also stores its view-bound term: its best entry
utility plus, for each distinct item at its view positions, that item's
largest utility there (the reduced remaining utility: a rule never
repeats an item). Any extension of the prefix that reaches minutil adds
only distinct candidate-set items, at positions after the end where the
prefix sits; those positions are all in the view, so no such extension
is worth more in that sequence than the term. A row's view bound is the
sum of its occurrences' terms. A child's term never exceeds its
holder's: the child's best is at most the holder's best plus the
child item's utility at one view position, and the child's view items
are the holder's view items other than the child item, each at no more
than its largest utility in the holder's view.

The scan is the miner's hot path, so it runs in two phases. Phase one
walks the views once and aggregates rrs and share per candidate item
into reusable stamped arrays, keeping each item's largest rrs term in
the occurrence being walked and raising the item's total whenever that
maximum rises, so the totals are current at every position. At an
item's first sighting in each occurrence it records the occurrence as
one of the item's holders (the child's support is their count) and adds
the occurrence's term to the item's share. Phase two rebuilds the
occurrence entries only for candidates that survive the caller's
utility gates, from the holders' views alone: one walk of each view
from the child's first end steps the child's staircase at the item's
positions and keeps, as the child's view, the later positions whose
item is in the child's successor set, with each distinct item's largest
utility for the child's term. It sums the child's until_utility from
its best entries. The item's share is the sum of its holders' terms, so
the child's terms so far plus the terms of the holders still to walk
bound the child's view bound from above; the walk stops as soon as that
falls below minutil.

Every scan gates each candidate three times, against minutil:
- rrs, the paper's bound, on the phase-one aggregates;
- the share (irrelevant-item pruning, as in HUSP-ULL). A path through
  the current prefix that contains item z occurs only in sequences
  whose view holds z, and is worth at most the term in each, so its
  utility is at most z's share. An item whose share falls below
  minutil is therefore dropped as a candidate, and also taken out of
  every kept child's candidate set; child views are filtered from the
  parent's, so it is gone from every view below the prefix;
- the view bound, as the child's occurrences and view are rebuilt:
  the sum of the child's terms, or the early stop's upper bound on it.
  It is at least until_utility, so the child's own rules are never
  lost.
At minutil 0 no gate can drop a row or an item, and the early stop
never fires; scan_extensions scans there, and so do the rscp ablation
and init_row.

One table holds the path the search is growing over one root, and the
miner reuses it from one top-level item to the next, so the table also
keeps the search's counters; the utility table it reads is immutable.
"""

from bisect import bisect_left
from dataclasses import dataclass

from .bounds import successor_sets
from .model import InvariantError, Threshold
from .ult import SeqOccurrences, UtilityTable


@dataclass(slots=True)
class SrtRow:
    """A path row; the prefix's support is len(occurrences)."""

    item: int
    occurrences: list[SeqOccurrences]
    until_utility: int
    rrs: int


class _ScanScratch:
    """Reusable per-item buffers, stamped so they never need clearing.

    stamp counts the view walks so far: phase one's, one per occurrence,
    and phase two's, one per holder. seen[it] is the stamp of the last
    walk in which item it was seen, and most[it] its largest value in
    that walk: its largest rrs term in a phase-one occurrence, its
    largest utility in a phase-two child view. Stamps only grow and a
    scan's phase one ends before its phase two starts, so the phases
    never read each other's values. rrs[it] sums the item's rrs terms
    over the occurrences walked so far, and share[it] the bounds of the
    occurrences whose view holds it. The item's holders themselves are
    per scan.
    """

    __slots__ = ("stamp", "seen", "most", "rrs", "share")

    def __init__(self, size: int) -> None:
        self.stamp = 0
        self.seen = [0] * size
        self.most = [0] * size
        self.rrs = [0] * size
        self.share = [0] * size


class SequenceRecordTable:
    """Stack of rows for one depth-first path over a utility table's
    root, and the search's counters.

    The root is not on the path: it has no item and no prefix. The table
    runs phase one over ult.roots when it is built and keeps its result:
    each item's holders in root, in first-appearance order, and the
    item's rrs and share in root_rrs and root_share. From those holders
    it builds successors, the EUCP successor sets at minutil, with the
    same keys in the same order. The table does not keep minutil: the
    scans take theirs, so rscp builds the sets at the real minutil and
    scans at 0.

    prefixes[d] is the tuple of the path's first d + 1 items. Each push
    builds one from its parent's and each pop drops it, so a prefix
    lives exactly as long as its row. The rules cut from the path share
    these tuples as antecedents, so equal antecedents are one object.
    consequents interns the rule consequents emitted on this table
    (each maps to itself); the miner clears it once a top-level item's
    rules are written, so equal consequents of one item are one object.

    Over every path grown on this table: candidates counts the rows the
    miner pushed as extensions (top-level rows are not candidates),
    rrs_prunes the scanned candidates whose rrs fell below minutil,
    iip_prunes the ones that passed the rrs gate but whose share fell
    below minutil, and view_prunes the ones that passed both but whose
    view bound fell below minutil.
    """

    __slots__ = (
        "ult",
        "root",
        "root_rrs",
        "root_share",
        "successors",
        "rows",
        "prefixes",
        "consequents",
        "scratch",
        "candidates",
        "rrs_prunes",
        "iip_prunes",
        "view_prunes",
    )

    def __init__(self, ult: UtilityTable, minutil: Threshold = Threshold(0, 1)) -> None:
        self.ult = ult
        self.rows: list[SrtRow] = []
        self.prefixes: list[tuple[int, ...]] = []
        self.consequents: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.scratch = scratch = _ScanScratch(ult.n_item_ids)
        self.root = _aggregate(ult, scratch, ult.roots)
        self.root_rrs, self.root_share = scratch.rrs[:], scratch.share[:]
        self.successors = successor_sets(ult.seq_items, self.root, minutil)
        self.candidates = 0
        self.rrs_prunes = 0
        self.iip_prunes = 0
        self.view_prunes = 0

    def __len__(self) -> int:
        return len(self.rows)

    def push_row(self, row: SrtRow) -> None:
        # Violations here are miner bugs, never data conditions.
        prefix = self.prefixes[-1] if self.prefixes else ()
        if row.item in prefix:
            raise InvariantError("duplicate item pushed onto path")
        if self.rows and len(row.occurrences) > len(self.rows[-1].occurrences):
            raise InvariantError("support monotonicity violated")
        self.rows.append(row)
        self.prefixes.append(prefix + (row.item,))

    def pop_row(self) -> SrtRow:
        if not self.rows:
            raise InvariantError("pop from empty table")
        self.prefixes.pop()
        return self.rows.pop()


_ZERO = Threshold(0, 1)


def init_row(srt: SequenceRecordTable, item: int) -> SrtRow:
    """Length-1 row of item: phase two over its root holders at minutil 0.

    A root's one entry is (0, 0), so the row's entries are the staircase
    of the item's own utilities, and its rrs sums, over the item's
    sequences, its largest rru there. An item the table does not hold
    raises KeyError.
    """
    holders = {item: srt.root[item]}
    return _materialize(srt.ult, srt, holders, srt.root_rrs, srt.root_share, _ZERO)[0][0]


def scan_extensions_gated(
    ult: UtilityTable, srt: SequenceRecordTable, minutil: Threshold
) -> tuple[list[SrtRow], int]:
    """Find the one-item extensions of the current path that can reach minutil.

    Returns ready rows in first-encounter order, and the count of
    candidates dropped because their rrs fell below minutil before their
    rows were materialized; that count is also added to srt.rrs_prunes.
    Candidates past the rrs gate whose share falls below minutil are
    dropped next, counted in srt.iip_prunes, and every share-dead item
    is left out of the kept rows' views. Rows whose view bound falls
    below minutil are dropped last, as soon as the rebuilt part of the
    row shows it, and counted in srt.view_prunes.
    Each row's item and rrs name the extension and its bound. Items
    already on the path (rules cannot repeat items) and items the
    successor sets block are not in the views, so they are never found.
    Each row is built from the current row's views alone.
    """
    holders = _aggregate(ult, srt.scratch, srt.rows[-1].occurrences)
    return _materialize(ult, srt, holders, srt.scratch.rrs, srt.scratch.share, minutil)


def scan_extensions(ult: UtilityTable, srt: SequenceRecordTable) -> list[SrtRow]:
    """Every one-item extension of the current path in its candidate set:
    scan_extensions_gated at minutil 0, where no gate drops a row or an
    item."""
    return scan_extensions_gated(ult, srt, _ZERO)[0]


def _aggregate(
    ult: UtilityTable, scratch: _ScanScratch, occurrences: list[SeqOccurrences]
) -> dict[int, list[SeqOccurrences]]:
    """Phase one: each candidate item's holders among the occurrences, in
    first-encounter order; its rrs and share are left in scratch.rrs and
    scratch.share.

    Between two consecutive end positions the running best is constant,
    so the walk goes segment by segment; a 1-based entry position doubles
    as the 0-based index of the first position after it. An item's first
    sighting in an occurrence records the occurrence as a holder, adds
    its bound to the item's share and its rrs term to the item's rrs; a
    later position that raises the term adds the rise.
    """
    seen = scratch.seen
    most = scratch.most
    g_rrs = scratch.rrs
    g_share = scratch.share
    seq_items = ult.seq_items
    seq_rrus = ult.seq_rrus
    stamp = scratch.stamp
    holders: dict[int, list[SeqOccurrences]] = {}
    for occ in occurrences:
        view = occ.view
        if not view:
            continue
        sid = occ.sid
        items_s = seq_items[sid]
        rrus_s = seq_rrus[sid]
        occ_bound = occ.bound
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
                r = run + rrus_s[k]
                if seen[it] == stamp:
                    if r > most[it]:
                        g_rrs[it] += r - most[it]
                        most[it] = r
                    continue
                held = holders.get(it)
                if held is None:
                    holders[it] = [occ]
                    g_rrs[it] = r
                    g_share[it] = occ_bound
                else:
                    held.append(occ)
                    g_rrs[it] += r
                    g_share[it] += occ_bound
                seen[it] = stamp
                most[it] = r
            if hi == n:
                break
            run = entries[ei][1]
            lo = hi
            ei += 1
    scratch.stamp = stamp
    return holders


def _materialize(
    ult: UtilityTable,
    srt: SequenceRecordTable,
    holders: dict[int, list[SeqOccurrences]],
    rrs_of: list[int],
    share_of: list[int],
    minutil: Threshold,
) -> tuple[list[SrtRow], int]:
    """Phase two: gate each holder item on its rrs and its share, then
    rebuild the survivors' rows from their holders' views alone, gated
    again on the view bound; every gate's drops are added to srt.

    The item is in the path's candidate set, so a holder's view has each
    of its positions after the first end, and every position the child's
    view can keep: one walk from the item's first position steps the
    staircase at the item and keeps the positions whose item is in the
    child's successor set, adding each kept item's largest utility to
    the child's term. Each new staircase's last entry adds to
    until_utility and to the term. A child's view leaves out the
    share-dead items, as do all views filtered from it further down the
    path. room is the item's share less minutil (both times den) less
    what the walked holders' terms exceed their children's: never below
    the child's view bound less minutil, and equal to it after the last
    holder. The walk stops, and the view bound drops the child, once
    room is negative.
    """
    scratch = srt.scratch
    seen = scratch.seen
    most = scratch.most
    stamp = scratch.stamp
    seq_items = ult.seq_items
    seq_utils = ult.seq_utils
    out: list[SrtRow] = []
    pruned = iip_pruned = view_pruned = 0
    num, den = minutil.numerator, minutil.denominator
    dead = {it for it in holders if share_of[it] * den < num}
    successors = srt.successors
    for it, parents in holders.items():
        rrs = rrs_of[it]
        if rrs * den < num:
            pruned += 1
            continue
        if it in dead:
            iip_pruned += 1
            continue
        succ = successors[it]
        if not succ.isdisjoint(dead):
            succ = succ - dead
        until = 0
        room = share_of[it] * den - num
        occ_rows: list[SeqOccurrences] = []
        for occ in parents:
            sid = occ.sid
            items_s = seq_items[sid]
            utils_s = seq_utils[sid]
            entries = occ.entries
            view = occ.view
            run = best = -1
            ei = 0
            m = len(entries)
            ents_out: list[tuple[int, int]] = []
            child: list[int] = []
            bound = 0
            stamp += 1
            for k in view[bisect_left(view, items_s.index(it, entries[0][0])) :]:
                item = items_s[k]
                if item == it:
                    q = k + 1
                    while ei < m and entries[ei][0] < q:
                        run = entries[ei][1]
                        ei += 1
                    v = run + utils_s[k]
                    if v > best:
                        best = v
                        ents_out.append((q, v))
                elif item in succ:
                    child.append(k)
                    u = utils_s[k]
                    if seen[item] != stamp:
                        seen[item] = stamp
                        most[item] = u
                        bound += u
                    elif u > most[item]:
                        bound += u - most[item]
                        most[item] = u
            until += best
            bound += best
            occ_rows.append(SeqOccurrences(sid, ents_out, tuple(child), bound))
            room -= (occ.bound - bound) * den
            if room < 0:
                view_pruned += 1
                break
        else:
            out.append(SrtRow(it, occ_rows, until, rrs))
    scratch.stamp = stamp
    srt.rrs_prunes += pruned
    srt.iip_prunes += iip_pruned
    srt.view_prunes += view_pruned
    return out, pruned
