"""The utility table: per-sequence columns plus one item-position index.

Each event is stored once, in three per-sequence columns keyed by sid:
seq_items, seq_utils and seq_rrus. seq_rrus holds the utility bound used
by extension scoring at every position (rru, or plain ru when the table
is built in ru mode). A forward projection scan is a walk over one
sequence's column slices and never touches the raw database again.

item_positions[item] maps each sid containing the item to the item's
0-based positions in that sequence, sids in database order. It seeds the
first projection row of an item and lets a scan rematerialize occurrence
details for the few extensions that survive gating without walking the
sequence again; it iterates in (sid, pos) order.

successors[x] is the EUCP successor set of item x at the minutil the
table was built for (see bounds.successor_sets): the items that may
follow x on a path that can still emit a rule. Built at minutil 0 it
blocks nothing.

Headers follow first appearance; each carries the item's rru sum. The
table is immutable after build.
"""

from dataclasses import dataclass

from .bounds import ru_values, rru_values, successor_sets
from .model import SequenceDatabase, Threshold


@dataclass(frozen=True, slots=True)
class UltHeader:
    """One header row: item and its summed per-sequence max rru."""

    item: int
    rru_sum: int


class UtilityLinkedTable:
    __slots__ = (
        "headers",
        "n_item_ids",
        "n_events",
        "seq_items",
        "seq_utils",
        "seq_rrus",
        "item_positions",
        "successors",
        "_header_index",
    )

    def __init__(self) -> None:
        self.headers: list[UltHeader] = []
        self.n_item_ids = 0
        self.n_events = 0
        self.seq_items: dict[int, tuple[int, ...]] = {}
        self.seq_utils: dict[int, tuple[int, ...]] = {}
        self.seq_rrus: dict[int, tuple[int, ...]] = {}
        self.item_positions: dict[int, dict[int, list[int]]] = {}
        self.successors: dict[int, frozenset[int]] = {}
        self._header_index: dict[int, int] = {}

    def __len__(self) -> int:
        return self.n_events

    def header_for(self, item: int) -> UltHeader | None:
        idx = self._header_index.get(item)
        return None if idx is None else self.headers[idx]


def build_ult(
    db: SequenceDatabase, *, use_rru: bool = True, minutil: Threshold = Threshold(0, 1)
) -> UtilityLinkedTable:
    """Build the table in one forward scan, then its successor sets at minutil.

    The database should already have unpromising items removed when
    pruning is in effect. use_rru=False stores the raw suffix bound at
    every position instead, which also switches the header sums to ru.
    The miner passes its minutil; at the default 0 the successor sets
    block nothing.
    """
    ult = UtilityLinkedTable()
    ult.n_item_ids = len(db.items)
    item_positions = ult.item_positions
    rru_sum: dict[int, int] = {}
    for seq in db.sequences:
        sid = seq.sid
        events = seq.events
        values = rru_values(events) if use_rru else ru_values(events)
        best: dict[int, int] = {}
        for k, ev in enumerate(events):
            item = ev.item
            by_sid = item_positions.get(item)
            if by_sid is None:
                by_sid = item_positions[item] = {}
            positions = by_sid.get(sid)
            if positions is None:
                by_sid[sid] = [k]
                best[item] = values[k]
            else:
                positions.append(k)
                if values[k] > best[item]:
                    best[item] = values[k]
        for item, value in best.items():
            rru_sum[item] = rru_sum.get(item, 0) + value
        ult.seq_items[sid] = tuple(ev.item for ev in events)
        ult.seq_utils[sid] = tuple(ev.utility for ev in events)
        ult.seq_rrus[sid] = tuple(values)
        ult.n_events += len(events)

    for item in item_positions:
        ult._header_index[item] = len(ult.headers)
        ult.headers.append(UltHeader(item, rru_sum[item]))
    ult.successors = successor_sets(ult, minutil)
    return ult
