"""The EUCP successor table, checked against its definition and its use.

y is in successors[x] iff eu(x, y) >= minutil, where eu(x, y) sums the
distinct-max utility of every sequence in which some x occurs before
some y. The table must never block an item of a rule, must hold exactly
the ordered pairs of the database at minutil 0, and must not change any
row that it lets through.
"""

import pytest

from husrm.bounds import prune_unpromising
from husrm.miner import MiningConfig, mine
from husrm.model import Threshold
from husrm.srt import SequenceRecordTable, init_row, scan_extensions
from husrm.ult import build_ult

from conftest import make_random_db, thr

ZERO = Threshold(0, 1)


def ordered_pairs(db) -> set[tuple[int, int]]:
    pairs = set()
    for seq in db.sequences:
        items = [ev.item for ev in seq.events]
        for i, x in enumerate(items):
            pairs.update((x, y) for y in items[i + 1 :] if y != x)
    return pairs


def eu(db, x: int, y: int) -> int:
    total = 0
    for seq in db.sequences:
        items = [ev.item for ev in seq.events]
        if x in items and y in items[items.index(x) + 1 :]:
            maxima: dict[int, int] = {}
            for ev in seq.events:
                maxima[ev.item] = max(maxima.get(ev.item, 0), ev.utility)
            total += sum(maxima.values())
    return total


@pytest.mark.parametrize("seed", range(30))
def test_table_at_minutil_zero_holds_exactly_the_ordered_pairs(seed):
    db = make_random_db(seed)
    table = build_ult(db).successors
    assert {(x, y) for x, ys in table.items() for y in ys} == ordered_pairs(db)
    assert all(x not in ys for x, ys in table.items())


# rscr tables store ru but take their terms from the same rru pass.
@pytest.mark.parametrize(
    "seed, use_rru",
    [pytest.param(seed, True, id=str(seed)) for seed in range(30)]
    + [pytest.param(seed, False, id=f"{seed}-ru") for seed in range(30)],
)
def test_table_matches_the_pair_definition(seed, use_rru):
    db = make_random_db(seed)
    pairs = ordered_pairs(db)
    values = {pair: eu(db, *pair) for pair in pairs}
    # Every pair's own eu as minutil puts that pair exactly on the bar.
    for minutil in [thr("0.2").times(db.total_utility)] + [
        Threshold(value, 1) for value in set(values.values())
    ]:
        table = build_ult(db, use_rru=use_rru, minutil=minutil).successors
        for (x, y), value in values.items():
            assert (y in table[x]) == (value * minutil.denominator >= minutil.numerator)


@pytest.mark.parametrize("seed", range(30))
def test_table_lets_every_ordered_pair_of_a_rule_through(seed):
    db = make_random_db(seed)
    minutil = thr("0.05").times(db.total_utility)
    rules, _ = mine(db, MiningConfig(minutil, thr("0.3")))
    table = build_ult(prune_unpromising(db, minutil), minutil=minutil).successors
    for rule in rules:
        items = rule.antecedent + rule.consequent
        for i, x in enumerate(items):
            for y in items[i + 1 :]:
                assert y in table[x], (rule, x, y)


def row_facts(row):
    occs = [(occ.sid, occ.entries) for occ in row.occurrences]
    return len(row.occurrences), row.until_utility, row.rrs, occs


@pytest.mark.parametrize("seed", range(30))
def test_rows_the_table_lets_through_are_unchanged(seed):
    db = make_random_db(seed)
    minutil = thr("0.1").times(db.total_utility)
    open_ult = build_ult(db)
    ult = build_ult(db, minutil=minutil)

    def check(open_srt, srt, depth):
        every = {row.item: row for row in scan_extensions(open_ult, open_srt)}
        passed = scan_extensions(ult, srt)
        path = [row.item for row in srt.rows]
        assert [row.item for row in passed] == [
            item for item in every if all(item in ult.successors[p] for p in path)
        ]
        for row in passed:
            assert row_facts(row) == row_facts(every[row.item])
            if depth < 4:
                open_srt.push_row(every[row.item])
                srt.push_row(row)
                check(open_srt, srt, depth + 1)
                open_srt.pop_row()
                srt.pop_row()

    for item in SequenceRecordTable(ult).root:
        open_srt, srt = SequenceRecordTable(open_ult), SequenceRecordTable(ult)
        open_srt.push_row(init_row(open_srt, item))
        srt.push_row(init_row(srt, item))
        assert row_facts(srt.rows[0]) == row_facts(open_srt.rows[0])
        check(open_srt, srt, 1)
