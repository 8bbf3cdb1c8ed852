"""Utility upper bounds and early item pruning.

Three bound families drive the pruning. Per-item seu backs the early
item prune: an item can only appear in a high-utility rule if the
distinct-max utility mass of the sequences containing it reaches
minutil. Per-position ru is the raw suffix utility sum. Per-position rru
tightens ru by counting each distinct later item once, at its maximum
utility within the suffix, and by ignoring later duplicates of the
position's own item; on duplicate-free sequences the two coincide.
Every bound here reads a sequence's item and utility columns directly;
both per-position bounds take one pass per sequence, and the tests check
them against their definitional forms. The rru pass ends holding the
sequence's distinct-max utility and returns it beside its column.

The successor table (EUCP, from FHM and HUSRM) blocks extensions by
item pairs: eu(x, y) sums the per-sequence distinct-max utility over the
sequences in which some x occurs before some y. A path's utility is at
most eu(p, y) for every item p before y on it, so an item y with
eu(p, y) < minutil for some path item p heads no subtree that emits a
rule. It takes each sequence's term from the rru pass rather than
computing it again.
"""

from itertools import accumulate, compress

from .model import Sequence, SequenceDatabase, Threshold, compare_at_least


def seu_per_item(db: SequenceDatabase) -> dict[int, int]:
    """Sequence-estimated utility of every item present in the database.

    The per-sequence term sums each distinct item once, at its maximum
    occurrence utility. It is an upper bound because a rule cannot repeat
    an item, and it is never above HUSRM's plain sum of all event
    utilities, with which it agrees on duplicate-free sequences.
    """
    totals: dict[int, int] = {}
    for seq in db.sequences:
        maxima: dict[int, int] = {}
        for item, utility in zip(seq.items, seq.utils):
            if utility > maxima.get(item, -1):
                maxima[item] = utility
        term = sum(maxima.values())
        for item in maxima:
            totals[item] = totals.get(item, 0) + term
    return totals


def prune_unpromising(
    db: SequenceDatabase, minutil: Threshold, *, distinct_max: bool = True
) -> SequenceDatabase:
    """Single-pass removal of every item whose seu falls below minutil.

    Sequences left empty are dropped; survivors keep their sids, and a
    sequence that loses no item is kept as the same object. minutil is
    not recomputed afterwards and no fixpoint iteration happens: the
    mining pipeline calls for exactly one pass.

    Only distinct_max=True is accepted: seu_per_item has one form. The
    keyword is kept because the benchmark's job script still passes it;
    its next change drops it.
    """
    if not distinct_max:
        raise ValueError("distinct_max must be True: the seu prune has one form")
    seu = seu_per_item(db)
    keep = {item for item, value in seu.items() if compare_at_least(value, minutil)}
    out: list[Sequence] = []
    for seq in db.sequences:
        mask = list(map(keep.__contains__, seq.items))
        if all(mask):
            out.append(seq)
        elif any(mask):
            items, utils = tuple(compress(seq.items, mask)), tuple(compress(seq.utils, mask))
            out.append(Sequence(seq.sid, items, utils))
    return SequenceDatabase(out, db.items)


def ru_values(utils: tuple[int, ...]) -> list[int]:
    """Suffix utility sums at every position of one sequence's utility column."""
    out = list(accumulate(reversed(utils)))
    out.reverse()
    return out


def rru_values(items: tuple[int, ...], utils: tuple[int, ...]) -> tuple[list[int], int]:
    """Reduced remaining utility at every position, in one backward pass,
    and the sequence's distinct-max utility.

    Maintains the running sum of per-item suffix maxima; the position's
    own item's contribution is subtracted back out. Once the pass has
    reached position 0 the running sum covers the whole sequence, so it
    is the sequence's distinct-max utility (its seu term), returned
    beside the column.
    """
    n = len(items)
    out = [0] * n
    suffix_max: dict[int, int] = {}
    running = 0
    for k in range(n - 1, -1, -1):
        item = items[k]
        utility = utils[k]
        prev = suffix_max.get(item, 0)
        out[k] = utility + running - prev
        if utility > prev:
            suffix_max[item] = utility
            running += utility - prev
    return out, running


def successor_sets(
    seq_items: dict[int, tuple[int, ...]],
    terms: dict[int, int],
    item_positions: dict[int, dict[int, list[int]]],
    minutil: Threshold,
) -> dict[int, frozenset[int]]:
    """EUCP successor table of the utility table: y in out[x] iff eu(x, y) >= minutil.

    terms[sid] is the distinct-max utility of sequence sid, as
    rru_values returns it. out[x] never holds x itself. At minutil 0 it
    holds exactly the items that occur after some x in some sequence, so
    it blocks nothing. The table is built one antecedent item at a time
    from the item index (item -> sid -> positions), so only the
    surviving pairs are ever held at once.
    """
    num, den = minutil.numerator, minutil.denominator
    out: dict[int, frozenset[int]] = {}
    for x, positions_by_sid in item_positions.items():
        eu: dict[int, int] = {}
        get = eu.get
        for sid, positions in positions_by_sid.items():
            term = terms[sid]
            for y in set(seq_items[sid][positions[0] + 1 :]):
                eu[y] = get(y, 0) + term
        eu.pop(x, None)
        out[x] = frozenset([y for y, value in eu.items() if value * den >= num])
    return out
