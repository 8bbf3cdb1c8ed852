"""The utility table: per-sequence columns and one root occurrence per sequence.

Three per-sequence columns are keyed by sid. seq_items and seq_utils
are the database sequence's own item and utility tuples, shared rather
than copied, so each event is stored once from parse to search.
seq_rrus holds the utility bound used by extension scoring at every
position (rru, or plain ru when the table is built in ru mode). A
forward projection scan is a walk over one sequence's column slices and
never touches the raw database again.

roots holds, in database order, each sequence's root occurrence, the
occurrence of the empty prefix that the search grows from (see srt):
its entries are [(0, 0)], one list shared by all roots; its view is
every position, a range shared by the sequences of one length; its
bound is the sequence's distinct-max utility, which the rru pass yields
beside its column (in ru mode the pass runs for that term alone).

The table depends only on the database and on use_rru: no threshold
goes into it. The EUCP successor sets, which do depend on minutil, are
the path table's (see srt).

The table is frozen: build_ult fills every column before constructing
it.
"""

from dataclasses import dataclass

from .bounds import ru_values, rru_values
from .model import SequenceDatabase


@dataclass(slots=True)
class SeqOccurrences:
    """End positions of the current prefix within one sequence, its view,
    and its view-bound term.

    entries pairs the first end and each later end worth strictly more
    than every earlier one, as a 1-based position, with the best prefix
    utility over embeddings ending exactly there; both rise. view holds,
    ascending, the 0-based positions after the first end whose item is
    in the path's candidate set: the only positions a scan of this
    occurrence visits. Below the root it is a tuple, which the garbage
    collector stops tracking, and empty views share the empty tuple.
    bound is the best (last) entry utility plus, for each distinct item
    at the view's positions, its largest utility there: no extension of
    the prefix that can reach minutil is worth more here.
    """

    sid: int
    entries: list[tuple[int, int]]
    view: tuple[int, ...] | range
    bound: int


@dataclass(frozen=True, slots=True)
class UtilityTable:
    """Per-sequence columns and the root occurrences.

    n_item_ids is the size of the item id space, which sizes the scan's
    per-item scratch arrays; len() is the number of events stored.
    """

    n_item_ids: int
    seq_items: dict[int, tuple[int, ...]]
    seq_utils: dict[int, tuple[int, ...]]
    seq_rrus: dict[int, tuple[int, ...]]
    roots: list[SeqOccurrences]

    def __len__(self) -> int:
        return sum(map(len, self.seq_items.values()))


def build_ult(db: SequenceDatabase, *, use_rru: bool = True) -> UtilityTable:
    """Build the table in one forward scan.

    The database should already have unpromising items removed when
    pruning is in effect. use_rru=False stores the raw suffix bound at
    every position instead.
    """
    seq_items: dict[int, tuple[int, ...]] = {}
    seq_utils: dict[int, tuple[int, ...]] = {}
    seq_rrus: dict[int, tuple[int, ...]] = {}
    roots: list[SeqOccurrences] = []
    entries = [(0, 0)]
    views: dict[int, range] = {}
    for seq in db.sequences:
        sid = seq.sid
        items = seq.items
        seq_items[sid] = items
        seq_utils[sid] = seq.utils
        rrus, term = rru_values(items, seq.utils)
        seq_rrus[sid] = tuple(rrus if use_rru else ru_values(seq.utils))
        view = views.setdefault(len(items), range(len(items)))
        roots.append(SeqOccurrences(sid, entries, view, term))
    return UtilityTable(
        n_item_ids=len(db.items),
        seq_items=seq_items,
        seq_utils=seq_utils,
        seq_rrus=seq_rrus,
        roots=roots,
    )
