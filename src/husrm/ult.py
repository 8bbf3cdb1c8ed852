"""The utility table: per-sequence columns plus one item-position index.

Three per-sequence columns are keyed by sid. seq_items and seq_utils
are the database sequence's own item and utility tuples, shared rather
than copied, so each event is stored once from parse to search.
seq_rrus holds the utility bound used by extension scoring at every
position (rru, or plain ru when the table is built in ru mode). A
forward projection scan is a walk over one sequence's column slices and
never touches the raw database again. The rru pass also yields each
sequence's distinct-max utility; build_ult uses it once, for the
successor sets, and does not store it. In ru mode the rru pass still
runs for that term alone.

item_positions[item] maps each sid containing the item to the item's
0-based positions in that sequence, sids in database order. Its keys
follow first appearance, which is the order the miner grows top-level
items in. It seeds the length-1 search row of an item, the successor
sets and the split of top-level items over the miner's processes; all
three iterate it in (sid, pos) order or take its sizes. No extension
scan reads it: a child row is built from its parent's views alone.

successors[x] is the EUCP successor set of item x at the minutil the
table was built for (see bounds.successor_sets): the items that may
follow x on a path that can still emit a rule. Built at minutil 0 it
blocks nothing.

The table holds per-position facts only; per-item aggregates such as a
length-1 row's bound are computed where the row is built. It is frozen:
build_ult fills every column before constructing it.
"""

from dataclasses import dataclass

from .bounds import ru_values, rru_values, successor_sets
from .model import SequenceDatabase, Threshold


@dataclass(frozen=True, slots=True)
class UtilityTable:
    """Per-sequence columns, the item-position index and the successor sets.

    n_item_ids is the size of the item id space, which sizes the scan's
    per-item scratch arrays; len() is the number of events stored.
    """

    n_item_ids: int
    seq_items: dict[int, tuple[int, ...]]
    seq_utils: dict[int, tuple[int, ...]]
    seq_rrus: dict[int, tuple[int, ...]]
    item_positions: dict[int, dict[int, list[int]]]
    successors: dict[int, frozenset[int]]

    def __len__(self) -> int:
        return sum(map(len, self.seq_items.values()))


def build_ult(
    db: SequenceDatabase, *, use_rru: bool = True, minutil: Threshold = Threshold(0, 1)
) -> UtilityTable:
    """Build the table in one forward scan, then its successor sets at minutil.

    The database should already have unpromising items removed when
    pruning is in effect. use_rru=False stores the raw suffix bound at
    every position instead. The miner passes its minutil; at the default
    0 the successor sets block nothing.
    """
    seq_items: dict[int, tuple[int, ...]] = {}
    seq_utils: dict[int, tuple[int, ...]] = {}
    seq_rrus: dict[int, tuple[int, ...]] = {}
    terms: dict[int, int] = {}
    item_positions: dict[int, dict[int, list[int]]] = {}
    for seq in db.sequences:
        sid = seq.sid
        items = seq.items
        for k, item in enumerate(items):
            by_sid = item_positions.get(item)
            if by_sid is None:
                by_sid = item_positions[item] = {}
            positions = by_sid.get(sid)
            if positions is None:
                by_sid[sid] = [k]
            else:
                positions.append(k)
        seq_items[sid] = items
        seq_utils[sid] = seq.utils
        rrus, terms[sid] = rru_values(items, seq.utils)
        seq_rrus[sid] = tuple(rrus if use_rru else ru_values(seq.utils))
    return UtilityTable(
        n_item_ids=len(db.items),
        seq_items=seq_items,
        seq_utils=seq_utils,
        seq_rrus=seq_rrus,
        item_positions=item_positions,
        successors=successor_sets(seq_items, terms, item_positions, minutil),
    )
