import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import husrm
from husrm import miner
from husrm.model import InvariantError, Threshold, build_database
from husrm.oracle import OracleConfig, max_embedding_utility, oracle_mine, support_of
from husrm.bounds import prune_unpromising
from husrm.srt import (
    SeqOccurrences,
    SequenceRecordTable,
    SrtRow,
    init_row,
    scan_extensions,
    scan_extensions_gated,
)
from husrm.ult import build_ult

from conftest import (
    SAMPLE_ROWS,
    WORKLOADS,
    bare_table,
    make_random_db,
    occurrence_bound,
    prefix_ends,
    reference_top_row,
    share,
    staircase,
    thr,
    top_table,
    view_bound,
    workload_db,
)


def rows_view(row):
    return [(occ.sid, occ.entries) for occ in row.occurrences]


def find_candidate(rows, item):
    for row in rows:
        if row.item == item:
            return row.rrs, row
    raise AssertionError(f"candidate {item} not found")


def top_row(ult, item):
    return top_table(ult, item).rows[0]


def test_init_row_small_scope(small_db):
    ult = build_ult(small_db)
    a = small_db.items.id_of("a")
    row = top_row(ult, a)
    assert rows_view(row) == [(1, [(1, 1)]), (3, [(1, 2)])]
    assert len(row.occurrences) == 2
    assert row.until_utility == 3
    assert row.rrs == 18


def test_init_row_single_occurrence(small_db):
    ult = build_ult(small_db)
    f = small_db.items.id_of("f")
    row = top_row(ult, f)
    assert len(row.occurrences) == 1
    assert row.until_utility == 10
    assert rows_view(row) == [(3, [(3, 10)])]


def test_init_row_support_full_sample(sample_db):
    ult = build_ult(sample_db)
    b = sample_db.items.id_of("b")
    assert len(top_row(ult, b).occurrences) == 3


def test_init_row_unknown_item(small_db):
    ult = build_ult(small_db)
    srt = SequenceRecordTable(ult)
    with pytest.raises(KeyError):
        init_row(srt, 999)


def test_scan_extensions_bound_single_item_prefix(sample_db):
    # prefix <a> extended by c: per-sequence max of best-prefix + rru
    ult = build_ult(sample_db)
    srt = top_table(ult, sample_db.items.id_of("a"))
    cands = scan_extensions(ult, srt)
    rrs, row = find_candidate(cands, sample_db.items.id_of("c"))
    assert rrs == 26
    assert len(row.occurrences) == 3
    assert row.until_utility == 13


def test_scan_extensions_bound_two_item_prefix(sample_db):
    ult = build_ult(sample_db)
    srt = top_table(ult, sample_db.items.id_of("a"))
    _, row_b = find_candidate(scan_extensions(ult, srt), sample_db.items.id_of("b"))
    srt.push_row(row_b)
    rrs, row = find_candidate(scan_extensions(ult, srt), sample_db.items.id_of("c"))
    assert rrs == 14
    assert row.until_utility == 11


def test_scan_extensions_empty_at_sequence_ends():
    db = build_database([[("a", 1), ("b", 2)], [("c", 3), ("b", 4)]])
    ult = build_ult(db)
    srt = top_table(ult, db.items.id_of("b"))
    assert scan_extensions(ult, srt) == []


def test_growth_rows_small_scope(small_db):
    # candidate path a, c, f keeps all end positions with best utilities
    ult = build_ult(small_db)
    items = small_db.items
    srt = top_table(ult, items.id_of("a"))

    rrs_c, row_c = find_candidate(scan_extensions(ult, srt), items.id_of("c"))
    assert rrs_c == 18
    assert row_c.until_utility == 8
    assert len(row_c.occurrences) == 2
    assert rows_view(row_c) == [(1, [(2, 3), (3, 4)]), (3, [(2, 4)])]
    srt.push_row(row_c)

    rrs_f, row_f = find_candidate(scan_extensions(ult, srt), items.id_of("f"))
    assert rrs_f == 14
    assert row_f.until_utility == 14
    assert len(row_f.occurrences) == 1
    assert rows_view(row_f) == [(3, [(3, 14)])]
    srt.push_row(row_f)
    assert [len(r.occurrences) for r in srt.rows] == [2, 2, 1]
    assert [r.until_utility for r in srt.rows] == [3, 8, 14]
    assert [r.rrs for r in srt.rows] == [18, 18, 14]


def test_push_pop_stack_discipline(small_db):
    ult = build_ult(small_db)
    items = small_db.items
    srt = top_table(ult, items.id_of("a"))
    before = list(srt.rows)
    _, row_c = find_candidate(scan_extensions(ult, srt), items.id_of("c"))
    srt.push_row(row_c)
    srt.pop_row()
    assert srt.rows == before
    assert srt.prefixes == [(items.id_of("a"),)]
    srt.push_row(row_c)
    assert srt.prefixes == [(items.id_of("a"),), (items.id_of("a"), items.id_of("c"))]


def test_push_rejects_duplicates_and_rising_support():
    srt = bare_table()
    srt.push_row(SrtRow(1, [SeqOccurrences(1, [(1, 5)], (), 5)], 5, 5))
    with pytest.raises(InvariantError):
        srt.push_row(SrtRow(1, [SeqOccurrences(1, [(2, 5)], (), 5)], 5, 5))
    with pytest.raises(InvariantError):
        srt.push_row(
            SrtRow(2, [SeqOccurrences(1, [(2, 5)], (), 5), SeqOccurrences(2, [(1, 5)], (), 5)], 5, 5)
        )
    assert len(srt) == 1 and srt.prefixes == [(1,)]


def test_pop_empty_table_is_a_bug():
    with pytest.raises(InvariantError):
        bare_table().pop_row()


DUPLICATE_PUSH = """
from husrm.model import InvariantError, build_database
from husrm.srt import SeqOccurrences, SequenceRecordTable, SrtRow
from husrm.ult import build_ult

if __debug__:
    raise SystemExit("expected to run under python -O")
srt = SequenceRecordTable(build_ult(build_database([])))
srt.push_row(SrtRow(1, [SeqOccurrences(1, [(1, 5)], (), 5)], 5, 5))
try:
    srt.push_row(SrtRow(1, [SeqOccurrences(1, [(2, 5)], (), 5)], 5, 5))
except InvariantError:
    pass
else:
    raise SystemExit("duplicate push went unchecked")
wider = [SeqOccurrences(1, [(2, 5)], (), 5), SeqOccurrences(2, [(1, 5)], (), 5)]
try:
    srt.push_row(SrtRow(2, wider, 5, 5))
except InvariantError:
    raise SystemExit(0)
raise SystemExit("rising support went unchecked")
"""


def test_push_checks_survive_optimized_mode():
    src = str(Path(husrm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DUPLICATE_PUSH],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def without_items(ult, row, dead):
    """row with the given items left out of every view, and each
    occurrence's bound recomputed."""
    occurrences = []
    for occ in row.occurrences:
        items_s = ult.seq_items[occ.sid]
        view = tuple(k for k in occ.view if items_s[k] not in dead)
        kept = SeqOccurrences(occ.sid, occ.entries, view, 0)
        kept.bound = occurrence_bound(ult, kept)
        occurrences.append(kept)
    return SrtRow(row.item, occurrences, row.until_utility, row.rrs)


def assert_bounds_stored(ult, rows):
    for row in rows:
        for occ in row.occurrences:
            assert occ.bound == occurrence_bound(ult, occ), (row.item, occ.sid)
        assert sum(occ.bound for occ in row.occurrences) == view_bound(ult, row)


def check_gated_against_ungated(ult, srt, minutil):
    """The gated scan keeps exactly the ungated rows whose rrs, share and
    view bound all reach minutil, with the share-dead items left out of
    their views, and counts the rest under the gate that dropped them.
    Returns the kept rows."""
    num, den = minutil.numerator, minutil.denominator
    every = scan_extensions(ult, srt)
    assert_bounds_stored(ult, every)
    parent = srt.rows[-1]
    dead = {r.item for r in every if share(ult, parent, r.item) * den < num}
    rrs_before, iip_before, view_before = srt.rrs_prunes, srt.iip_prunes, srt.view_prunes
    gated, pruned = scan_extensions_gated(ult, srt, minutil)
    assert_bounds_stored(ult, gated)
    past_rrs = [r for r in every if r.rrs * den >= num]
    past_iip = [without_items(ult, r, dead) for r in past_rrs if r.item not in dead]
    kept = [r for r in past_iip if view_bound(ult, r) * den >= num]
    assert gated == kept
    assert pruned == len(every) - len(past_rrs)
    assert srt.rrs_prunes - rrs_before == pruned
    assert srt.iip_prunes - iip_before == len(past_rrs) - len(past_iip)
    assert srt.view_prunes - view_before == len(past_iip) - len(kept)
    return gated


def test_gated_scan_matches_ungated(sample_db):
    ult = build_ult(sample_db)
    srt = top_table(ult, sample_db.items.id_of("b"))
    kept = check_gated_against_ungated(ult, srt, Threshold(14, 1))
    # Children of b as (rrs, view bound): c (33, 27) passes both gates,
    # a (9, 9) falls to rrs, and e (19, 13) passes rrs but its view is
    # empty, so its bound is its own utility, 13.
    assert [sample_db.items.token_of(r.item) for r in kept] == ["c"]
    assert srt.view_prunes == 1


@pytest.mark.parametrize("seed", range(40))
def test_gated_scan_matches_ungated_at_every_bound(seed):
    # Thresholds sit exactly at each child's rrs, view bound and share
    # and just past them, so a gate comparing the wrong way round fails
    # here.
    ult = build_ult(make_random_db(seed))

    def check(srt):
        children = scan_extensions(ult, srt)
        parent = srt.rows[-1]
        values = {
            v
            for row in children
            for v in (row.rrs, view_bound(ult, row), share(ult, parent, row.item))
        }
        for value in values:
            for minutil in (Threshold(value, 1), Threshold(2 * value + 1, 2)):
                check_gated_against_ungated(ult, srt, minutil)
        for row in children if len(srt) < 4 else ():
            srt.push_row(row)
            check(srt)
            srt.pop_row()

    for item in SequenceRecordTable(ult).root:
        srt = SequenceRecordTable(ult)
        row = init_row(srt, item)
        assert_bounds_stored(ult, [row])
        srt.push_row(row)
        check(srt)


def walk_all_prefixes(db, max_len=6, minutil=Threshold(0, 1)):
    """Yield (prefix items, row) for every reachable path, ungated, on
    path tables with their successor sets at minutil."""
    ult = build_ult(db)
    out = []

    def grow(srt, prefix):
        for row in scan_extensions(ult, srt):
            srt.push_row(row)
            out.append((prefix + (row.item,), row))
            if len(srt) < max_len:
                grow(srt, prefix + (row.item,))
            srt.pop_row()

    for item in SequenceRecordTable(ult, minutil).root:
        srt = SequenceRecordTable(ult, minutil)
        row = init_row(srt, item)
        srt.push_row(row)
        out.append(((item,), row))
        grow(srt, (item,))
    return out


def assert_entries_are_the_staircase(db, rows):
    """Each occurrence of each (prefix, row) holds exactly the ends of the
    prefix that no earlier end matches or beats, and the row has one
    occurrence per sequence that holds the prefix."""
    for prefix, row in rows:
        by_sid = {seq.sid: prefix_ends(seq, prefix) for seq in db.sequences}
        assert [occ.sid for occ in row.occurrences] == [s for s, e in by_sid.items() if e]
        for occ in row.occurrences:
            entries = occ.entries
            assert entries == staircase(by_sid[occ.sid]), (prefix, occ.sid)
            assert all(p < q and u < v for (p, u), (q, v) in zip(entries, entries[1:]))


@pytest.mark.parametrize("seed", range(25))
def test_rows_match_definitions_everywhere(seed):
    db = make_random_db(seed)
    rows = walk_all_prefixes(db)
    assert_entries_are_the_staircase(db, rows)
    for prefix, row in rows:
        util = 0
        sup = 0
        for seq in db.sequences:
            u = max_embedding_utility(seq, prefix)
            if u is not None:
                util += u
                sup += 1
        assert row.until_utility == util, prefix
        assert len(row.occurrences) == sup == support_of(db, prefix)


@pytest.mark.parametrize("seed", range(25))
def test_frontier_scanning_finds_exactly_the_extensions(seed):
    db = make_random_db(seed)
    ult = build_ult(db)
    present = set(db.distinct_items())

    def check(srt, prefix):
        found = {row.item for row in scan_extensions(ult, srt)}
        expected = {
            item
            for item in present
            if item not in prefix
            and any(
                max_embedding_utility(seq, prefix + (item,)) is not None
                for seq in db.sequences
            )
        }
        assert found == expected, prefix
        for row in scan_extensions(ult, srt):
            srt.push_row(row)
            if len(srt) < 5:
                check(srt, prefix + (row.item,))
            srt.pop_row()

    for item in SequenceRecordTable(ult).root:
        srt = SequenceRecordTable(ult)
        srt.push_row(init_row(srt, item))
        check(srt, (item,))


def test_entries_keep_only_the_rising_ends_on_the_sample(sample_db):
    assert_entries_are_the_staircase(sample_db, walk_all_prefixes(sample_db))


def test_entries_keep_the_earlier_end_on_a_tie():
    # a ends at 1 (utility 0), 2 (0) and 5 (5): the tie at 2 is dropped.
    # b ends at 3 (0), 4 (0) and 6 (2); a, b at 3 (0 + 0), 4 (0 + 0) and
    # 6 (5 + 2). Each tie at 4 is dropped too.
    db = build_database([[("a", 0), ("a", 0), ("b", 0), ("b", 0), ("a", 5), ("b", 2)]])
    a, b = db.items.id_of("a"), db.items.id_of("b")
    rows = dict(walk_all_prefixes(db))
    assert rows[(a,)].occurrences[0].entries == [(1, 0), (5, 5)]
    assert rows[(b,)].occurrences[0].entries == [(3, 0), (6, 2)]
    assert rows[(a, b)].occurrences[0].entries == [(3, 0), (6, 7)]
    assert rows[(a, b)].until_utility == 7
    assert_entries_are_the_staircase(db, rows.items())


# The sample and the random corpus, each with its successor sets built at
# minutil 0 and at a tenth of its total utility.
CORPUS = [pytest.param(None, id="sample"), *range(25)]


def corpus_db(seed):
    return build_database(SAMPLE_ROWS) if seed is None else make_random_db(seed)


def table_minutils(db):
    return (Threshold(0, 1), Threshold(db.total_utility, 10))


def path_table(ult, minutil, rows, prefix):
    """A fresh path table over ult, with its successor sets at minutil,
    holding the rows of prefix and of its prefixes."""
    srt = SequenceRecordTable(ult, minutil)
    for d in range(1, len(prefix) + 1):
        srt.push_row(rows[prefix[:d]])
    return srt


@pytest.mark.parametrize("use_rru", [True, False], ids=["rru", "ru"])
@pytest.mark.parametrize(
    "source", [pytest.param(None, id="sample"), *range(200), *WORKLOADS]
)
def test_top_level_rows_match_their_definition(source, use_rru):
    # Every item's top-level row, built by phase two over the root, equals
    # the row built by definition in every field. The sample and the
    # random corpus are checked with successor sets at minutil 0 and at a
    # tenth of their total, each workload on its tables as mine builds them.
    if source in WORKLOADS:
        db = workload_db(source)
        minutil = thr(WORKLOADS[source][1]).times(db.total_utility)
        tables = [(prune_unpromising(db, minutil), minutil)]
    else:
        db = corpus_db(source)
        tables = [(db, minutil) for minutil in table_minutils(db)]
    for work, minutil in tables:
        srt = SequenceRecordTable(build_ult(work, use_rru=use_rru), minutil)
        assert list(srt.root) == work.distinct_items()
        for item in srt.root:
            assert init_row(srt, item) == reference_top_row(srt, item), item


@pytest.mark.parametrize("seed", CORPUS)
def test_scans_need_no_item_index(seed):
    # The table has no item index, and past init_row a scan derives every
    # child from its parent's views: it reads neither the table's roots
    # nor the path table's root. The gated scan runs at the higher
    # threshold on both tables.
    db = corpus_db(seed)
    gate = table_minutils(db)[1]
    ult = build_ult(db)
    assert not hasattr(ult, "item_positions")
    bare = dataclasses.replace(ult, roots=[])
    for minutil in table_minutils(db):
        rows = dict(walk_all_prefixes(db, minutil=minutil))
        for prefix in rows:
            results = []
            for table in (ult, bare):
                srt = path_table(ult, minutil, rows, prefix)
                if table is bare:
                    srt.ult = bare
                    srt.root = srt.root_rrs = srt.root_share = None
                every = scan_extensions(table, srt)
                gated = scan_extensions_gated(table, srt, gate)
                counters = (srt.rrs_prunes, srt.iip_prunes, srt.view_prunes)
                results.append((every, gated, counters))
            assert results[0] == results[1], prefix


@pytest.mark.parametrize("seed", CORPUS)
def test_views_match_their_definition(seed):
    # Each occurrence's view holds exactly the 0-based positions from the
    # prefix's first end (its 1-based position) on whose item is in the
    # path's candidate set: every path item's successor set, intersected.
    db = corpus_db(seed)
    seqs = {seq.sid: seq for seq in db.sequences}
    for minutil in table_minutils(db):
        successors = SequenceRecordTable(build_ult(db), minutil).successors
        for prefix, row in walk_all_prefixes(db, minutil=minutil):
            candidates = frozenset.intersection(*(successors[p] for p in prefix))
            for occ in row.occurrences:
                items = seqs[occ.sid].items
                first = prefix_ends(seqs[occ.sid], prefix)[0][0]
                expected = tuple(k for k in range(first, len(items)) if items[k] in candidates)
                assert occ.view == expected, (prefix, occ.sid)


@pytest.mark.parametrize("seed", CORPUS)
def test_rrs_matches_its_definition_everywhere(seed):
    # Each reachable row of a path P·y has as rrs the sum, over the
    # sequences holding the path, of the largest over y's positions q
    # after P's first end of P's best utility over embeddings ending
    # before q plus the rru at q. The empty P ends once, at 0, worth 0.
    db = corpus_db(seed)
    rrus = build_ult(db).seq_rrus
    for minutil in table_minutils(db):
        for path, row in walk_all_prefixes(db, minutil=minutil):
            prefix, y = path[:-1], path[-1]
            expected = 0
            for seq in db.sequences:
                ends = prefix_ends(seq, prefix) if prefix else [(0, 0)]
                terms = [
                    max(u for p, u in ends if p <= q) + rrus[seq.sid][q]
                    for q, item in enumerate(seq.items)
                    if item == y and ends and q >= ends[0][0]
                ]
                expected += max(terms, default=0)
            assert row.rrs == expected, path


# One sequence a:1 b:1 c:2 c:2 c:2 a:9. The path <a> keeps its ends 1
# (utility 1) and 6 (9), and its view b c c c, so its term is 9 + 1 + 2:
# c counts once, at its largest utility. The child <a, b> ends at 2 (2)
# and its view is c c c, so its term is 2 + 2 = 4, where the raw sum of
# the view would give 2 + 6 = 8. Its rrs is 1 + rru(b) = 1 + 1 + 2 + 9 =
# 13: rru counts the later a, which can never extend the path.
REPEATS = [[("a", 1), ("b", 1), ("c", 2), ("c", 2), ("c", 2), ("a", 9)]]


def test_reduced_term_drops_a_child_the_raw_sum_keeps():
    db = build_database(REPEATS)
    a, b = db.items.id_of("a"), db.items.id_of("b")
    minutil = Threshold(5, 1)
    ult = build_ult(db)
    srt = top_table(ult, a, minutil)
    assert srt.rows[0].occurrences[0].bound == 12
    (child,) = [row for row in scan_extensions(ult, srt) if row.item == b]
    assert (child.rrs, child.occurrences[0].bound) == (13, 4)
    srt.view_prunes = 0
    rows, pruned = scan_extensions_gated(ult, srt, minutil)
    # Both children of <a> pass rrs and their share (12); b's view bound
    # is 4 and c's, with an empty view, is its utility 3.
    assert rows == [] and pruned == 0
    assert (srt.iip_prunes, srt.view_prunes) == (0, 2)


@pytest.mark.parametrize("bins", [1, 2])
def test_reduced_term_on_repeats_mines_the_oracle_rules(bins, monkeypatch):
    monkeypatch.setattr(miner, "_usable_cpus", lambda: bins)
    monkeypatch.setattr(miner, "PARALLEL_MIN_EVENTS", 0)
    db = build_database(REPEATS)
    for value in range(1, db.total_utility + 2):
        minutil, minconf = Threshold(value, 1), Threshold(1, 2)
        rules, _ = miner.mine(db, miner.MiningConfig(minutil, minconf))
        expected, truncated = oracle_mine(db, OracleConfig(minutil, minconf, 3))
        assert not truncated
        assert set(rules) == set(expected), value
    stats = miner.mine(db, miner.MiningConfig(Threshold(5, 1), minconf))[1]
    # <a>'s children b and c fall to the view bound, so b's child c is
    # never scanned.
    assert (stats.candidates, stats.view_prunes, stats.iip_prunes) == (4, 2, 0)


def best_distinct_extension(seq, prefix, view) -> int:
    """The most a path extending prefix by distinct items at view
    positions can be worth in seq: an end of prefix, then any set of view
    positions after it holding distinct items. Brute force over every
    set."""
    best = -1
    for end, utility in prefix_ends(seq, prefix):
        later = [k for k in view if k >= end]
        for mask in range(1 << len(later)):
            picked = [later[j] for j in range(len(later)) if mask >> j & 1]
            items = [seq.items[k] for k in picked]
            if len(set(items)) == len(items):
                best = max(best, utility + sum(seq.utils[k] for k in picked))
    return best


@pytest.mark.parametrize("seed", CORPUS)
def test_terms_bound_every_extension_by_distinct_view_items(seed):
    db = corpus_db(seed)
    seqs = {seq.sid: seq for seq in db.sequences}
    for prefix, row in walk_all_prefixes(db):
        for occ in row.occurrences:
            assert len(occ.view) <= 8
            seq = seqs[occ.sid]
            assert occ.bound >= best_distinct_extension(seq, prefix, occ.view), (prefix, occ.sid)
