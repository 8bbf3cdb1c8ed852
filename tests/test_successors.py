"""The EUCP successor table, checked against its definition and its use.

y is in successors[x] iff eu(x, y) >= minutil, where eu(x, y) sums the
distinct-max utility of every sequence in which some x occurs before
some y. The path table builds it from its root, at the minutil it is
given. The table must never block an item of a rule, must hold exactly
the ordered pairs of the database at minutil 0, and must not change any
row that it lets through.
"""

import pytest

from husrm.bounds import prune_unpromising
from husrm.miner import MiningConfig, mine
from husrm.model import Threshold
from husrm.srt import SequenceRecordTable, init_row, scan_extensions
from husrm.ult import build_ult

from conftest import WORKLOADS, make_random_db, thr, workload_db

ZERO = Threshold(0, 1)


def successor_table(db, minutil=ZERO, use_rru=True):
    """The successor sets of the path table over db's utility table."""
    return SequenceRecordTable(build_ult(db, use_rru=use_rru), minutil).successors


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
    table = successor_table(db)
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
        table = successor_table(db, minutil, use_rru)
        for (x, y), value in values.items():
            assert (y in table[x]) == (value * minutil.denominator >= minutil.numerator)


@pytest.mark.parametrize("seed", range(30))
def test_table_lets_every_ordered_pair_of_a_rule_through(seed):
    db = make_random_db(seed)
    minutil = thr("0.05").times(db.total_utility)
    rules, _ = mine(db, MiningConfig(minutil, thr("0.3")))
    table = successor_table(prune_unpromising(db, minutil), minutil)
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
    ult = build_ult(db)

    def check(open_srt, srt, depth):
        every = {row.item: row for row in scan_extensions(ult, open_srt)}
        passed = scan_extensions(ult, srt)
        path = [row.item for row in srt.rows]
        assert [row.item for row in passed] == [
            item for item in every if all(item in srt.successors[p] for p in path)
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
        open_srt, srt = SequenceRecordTable(ult), SequenceRecordTable(ult, minutil)
        open_srt.push_row(init_row(open_srt, item))
        srt.push_row(init_row(srt, item))
        assert row_facts(srt.rows[0]) == row_facts(open_srt.rows[0])
        check(open_srt, srt, 1)


def first_before_last_eu(db) -> dict[tuple[int, int], int]:
    """eu of every pair of distinct items, in its first-before-last form:
    the distinct-max utility summed over the sequences in which the first
    x comes before the last y."""
    eu: dict[tuple[int, int], int] = {}
    for seq in db.sequences:
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        top: dict[int, int] = {}
        for k, (item, utility) in enumerate(zip(seq.items, seq.utils)):
            first.setdefault(item, k)
            last[item] = k
            top[item] = max(top.get(item, 0), utility)
        term = sum(top.values())
        for x, i in first.items():
            for y, j in last.items():
                if i < j and x != y:
                    eu[x, y] = eu.get((x, y), 0) + term
    return eu


@pytest.mark.parametrize("name", WORKLOADS)
def test_successor_sets_at_workload_size(name):
    # Each workload's pruned database at its minutil, as mine builds it.
    db = workload_db(name)
    minutil = thr(WORKLOADS[name][1]).times(db.total_utility)
    work = prune_unpromising(db, minutil)
    srt = SequenceRecordTable(build_ult(work), minutil)
    # _split reads the successor set of every item of the root.
    assert list(srt.successors) == list(srt.root)
    expected: dict[int, set[int]] = {x: set() for x in work.distinct_items()}
    for (x, y), value in first_before_last_eu(work).items():
        if value * minutil.denominator >= minutil.numerator:
            expected[x].add(y)
    assert srt.successors == expected
