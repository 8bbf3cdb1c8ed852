"""Definitional forms of the per-position bounds, for tests only.

ru and rru at one position and the per-item rru sum, each computed
straight from its definition over a sequence's item and utility
columns. The miner's one-pass computations (bounds.ru_values,
bounds.rru_values and the utility table built from them) are checked
against these.
"""

from typing import NamedTuple

from husrm.model import Sequence, SequenceDatabase


class PositionRef(NamedTuple):
    """A 1-based position inside one sequence."""

    sid: int
    pos: int


def sequence_by_sid(db: SequenceDatabase, sid: int) -> Sequence:
    by_sid = {seq.sid: seq for seq in db.sequences}
    return by_sid[sid]


def ru_at(db: SequenceDatabase, ref: PositionRef) -> int:
    """Raw remaining utility: suffix utility sum from the position inclusive."""
    return sum(sequence_by_sid(db, ref.sid).utils[ref.pos - 1 :])


def rru_at(db: SequenceDatabase, ref: PositionRef) -> int:
    """Reduced remaining utility of one position, straight from its definition.

    Own utility, plus one term per distinct later item at its maximum
    utility among occurrences after the position. Later occurrences of
    the position's own item contribute nothing.
    """
    seq = sequence_by_sid(db, ref.sid)
    own = seq.items[ref.pos - 1]
    maxima: dict[int, int] = {}
    for item, utility in zip(seq.items[ref.pos :], seq.utils[ref.pos :]):
        if item == own:
            continue
        if utility > maxima.get(item, -1):
            maxima[item] = utility
    return seq.utils[ref.pos - 1] + sum(maxima.values())


def rru_sum_per_item(db: SequenceDatabase) -> dict[int, int]:
    """Per item: sum over containing sequences of the sequence's maximum rru.

    The per-sequence maximum over the item's occurrences mirrors the
    max-occurrence utility semantics of patterns.
    """
    totals: dict[int, int] = {}
    for seq in db.sequences:
        best: dict[int, int] = {}
        for pos, item in enumerate(seq.items, 1):
            value = rru_at(db, PositionRef(seq.sid, pos))
            if value > best.get(item, -1):
                best[item] = value
        for item, value in best.items():
            totals[item] = totals.get(item, 0) + value
    return totals
