"""Sequence record table: the per-path projection state of the search.

Row i describes the length-i item prefix of the current depth-first
path: per sequence holding it (the row's support is their count), the
prefix's end positions that a scan needs (below), each with the best
utility over prefix embeddings ending exactly there; its exact utility
over the database (until_utility); and the bound (rrs) that justified
creating the row.

Extension scanning walks each occurrence's projected view: the positions
after its earliest end whose item is still in the path's candidate set
C. C holds the items that may extend the path and still head a rule:
C(x) = successors[x] for a length-1 path and C(P.y) = C(P) & successors[y]
(the utility table's EUCP successor sets) less the items the share gate
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
into reusable stamped arrays, folding an item's per-sequence rrs term
into the totals when the item turns up in a later sequence. At an
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
never fires; scan_extensions scans there, and so does the rscp
ablation.

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
    """End positions of the current prefix within one sequence, its view,
    and its view-bound term.

    entries pairs the first end and each later end worth strictly more
    than every earlier one, as a 1-based position, with the best prefix
    utility over embeddings ending exactly there; both rise. view holds,
    ascending, the 0-based positions after the first end whose item is
    in the path's candidate set: the only positions a scan of this
    occurrence visits. It is a tuple, which the garbage collector stops
    tracking, and empty views share the empty tuple. bound is the best
    (last) entry utility plus, for each distinct item at the view's
    positions, its largest utility there: no extension of the prefix
    that can reach minutil is worth more here.
    """

    sid: int
    entries: list[tuple[int, int]]
    view: tuple[int, ...]
    bound: int


@dataclass(slots=True)
class SrtRow:
    """A path row; the prefix's support is len(occurrences)."""

    item: int
    occurrences: list[SeqOccurrences]
    until_utility: int
    rrs: int


class _ScanScratch:
    """Reusable per-item buffers, stamped so they never need clearing.

    stamp counts the view walks so far: phase one's, one per occurrence
    sequence, and phase two's, one per holder. seq_ep[it] is the stamp of
    the last phase-one sequence in which item it was seen, and seq_bound
    its rrs term within that sequence. rrs[it] sums the terms of the
    earlier sequences, and share[it] the bounds of the occurrences whose
    view holds it. The item's holders themselves are per scan. top_ep[it]
    is the stamp of the last phase-two walk that kept item it in a child
    view, and top[it] its largest utility in that walk so far.
    """

    __slots__ = ("size", "stamp", "seq_ep", "rrs", "share", "seq_bound", "top_ep", "top")

    def __init__(self, size: int) -> None:
        self.size = size
        self.stamp = 0
        self.seq_ep = [0] * size
        self.rrs = [0] * size
        self.share = [0] * size
        self.seq_bound = [0] * size
        self.top_ep = [0] * size
        self.top = [0] * size


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
    rrs_prunes the scanned candidates whose rrs fell below minutil,
    iip_prunes the ones that passed the rrs gate but whose share fell
    below minutil, and view_prunes the ones that passed both but whose
    view bound fell below minutil.
    """

    __slots__ = (
        "rows",
        "prefixes",
        "consequents",
        "scratch",
        "candidates",
        "rrs_prunes",
        "iip_prunes",
        "view_prunes",
    )

    def __init__(self) -> None:
        self.rows: list[SrtRow] = []
        self.prefixes: list[tuple[int, ...]] = []
        self.consequents: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.scratch: _ScanScratch | None = None
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


def init_row(ult: UtilityTable, item: int) -> SrtRow:
    """Length-1 row: every occurrence of the item, from the table's item index.

    Each end's best prefix utility is its own, kept where it beats every
    earlier end's; the view keeps the positions after the first end whose
    item is a successor of this one (none, for an item the miner never
    grows), and the bound adds to the best each distinct view item's
    largest utility there.
    The row's rrs sums, over the item's sequences, its largest stored rru
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
        best = -1
        top_rru = 0
        for k in positions:
            u = utils_s[k]
            if u > best:
                best = u
                entries.append((k + 1, u))
            r = rrus_s[k]
            if r > top_rru:
                top_rru = r
        until += best
        rrs += top_rru
        items_s = seq_items[sid]
        view = tuple([k for k in range(positions[0] + 1, len(items_s)) if items_s[k] in succ])
        top: dict[int, int] = {}
        for k in view:
            z = items_s[k]
            u = utils_s[k]
            if u > top.get(z, 0):
                top[z] = u
        occurrences.append(SeqOccurrences(sid, entries, view, best + sum(top.values())))
    return SrtRow(item, occurrences, until, rrs)


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
    Each row is built from the current row's views alone; the table's
    item index is never read.
    """
    last = srt.rows[-1]
    scratch = srt.scratch
    if scratch is None or scratch.size < ult.n_item_ids:
        scratch = srt.scratch = _ScanScratch(ult.n_item_ids)
    seq_ep = scratch.seq_ep
    g_rrs = scratch.rrs
    g_share = scratch.share
    s_bound = scratch.seq_bound
    top_ep = scratch.top_ep
    top = scratch.top
    seq_items = ult.seq_items
    seq_utils = ult.seq_utils
    seq_rrus = ult.seq_rrus
    # Stamps only grow: an item stamped at or below base is new to this
    # scan, one stamped between base and the current sequence's stamp
    # still has that earlier sequence's rrs term to fold in.
    base = stamp = scratch.stamp
    holders: dict[int, list[SeqOccurrences]] = {}

    # Phase one: aggregate per candidate item over the views. Between two
    # consecutive end positions the running best is constant, so the walk
    # goes segment by segment; a 1-based entry position doubles as the
    # 0-based index of the first position after it. An item's first
    # sighting in an occurrence records the occurrence as a holder and
    # adds its bound to the item's share.
    for occ in last.occurrences:
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
                seen = seq_ep[it]
                if seen == stamp:
                    if r > s_bound[it]:
                        s_bound[it] = r
                    continue
                if seen > base:
                    holders[it].append(occ)
                    g_rrs[it] += s_bound[it]
                    g_share[it] += occ_bound
                else:
                    holders[it] = [occ]
                    g_rrs[it] = 0
                    g_share[it] = occ_bound
                seq_ep[it] = stamp
                s_bound[it] = r
            if hi == n:
                break
            run = entries[ei][1]
            lo = hi
            ei += 1
    for it in holders:
        g_rrs[it] += s_bound[it]

    # Phase two: gate on rrs and on the share, then rebuild occurrence
    # entries and views only for survivors, from their holders' views
    # alone, and gate again on the view bound. The item is in the path's
    # candidate set, so a holder's view has each of its positions after
    # the first end, and every position the child's view can keep: one
    # walk from the item's first position steps the staircase at the
    # item and keeps the positions whose item is in the child's successor
    # set, adding each kept item's largest utility to the child's term.
    # Each new staircase's last entry adds to until_utility and to the
    # term. A child's view leaves out the share-dead items, as do all
    # views filtered from it further down the path. room is the item's
    # share less minutil (both times den) less what the walked holders'
    # terms exceed their children's: never below the child's view bound
    # less minutil, and equal to it after the last holder. The walk
    # stops, and the view bound drops the child, once room is negative.
    out: list[SrtRow] = []
    pruned = 0
    iip_pruned = 0
    view_pruned = 0
    num = minutil.numerator
    den = minutil.denominator
    dead = {it for it in holders if g_share[it] * den < num}
    successors = ult.successors
    for it, parents in holders.items():
        rrs = g_rrs[it]
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
        room = g_share[it] * den - num
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
                    if top_ep[item] != stamp:
                        top_ep[item] = stamp
                        top[item] = u
                        bound += u
                    elif u > top[item]:
                        bound += u - top[item]
                        top[item] = u
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


def scan_extensions(ult: UtilityTable, srt: SequenceRecordTable) -> list[SrtRow]:
    """Every one-item extension of the current path in its candidate set:
    scan_extensions_gated at minutil 0, where no gate drops a row or an
    item."""
    return scan_extensions_gated(ult, srt, Threshold(0, 1))[0]
