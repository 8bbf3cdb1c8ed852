import inspect
from dataclasses import FrozenInstanceError

import pytest

from husrm.bounds import prune_unpromising, seu_per_item
from husrm.model import Threshold, build_database
from husrm.srt import SeqOccurrences, SequenceRecordTable, init_row
from husrm.ult import UtilityTable, build_ult

from conftest import make_random_db, top_table
from reference import PositionRef, rru_at, rru_sum_per_item, ru_at


def holder_refs(srt, item):
    """The item's (sid, 1-based pos) pairs, sids in root holder order."""
    refs = []
    for occ in srt.root.get(item, []):
        items = srt.ult.seq_items[occ.sid]
        refs += [(occ.sid, k + 1) for k, x in enumerate(items) if x == item]
    return refs


def top_rrs(ult, item):
    return top_table(ult, item).rows[0].rrs


def test_single_node_database():
    db = build_database([[("x", 7)]])
    ult = build_ult(db)
    x = db.items.id_of("x")
    sid = db.sequences[0].sid
    assert len(ult) == 1
    assert ult.seq_items == {sid: (x,)}
    assert ult.seq_utils == {sid: (7,)}
    assert ult.seq_rrus == {sid: (7,)}
    assert ult.roots == [SeqOccurrences(sid, [(0, 0)], range(1), 7)]
    assert SequenceRecordTable(ult).root == {x: ult.roots}
    row = top_table(ult, x).rows[0]
    assert (row.item, row.rrs) == (x, 7)


def test_table_is_frozen(small_db):
    ult = build_ult(small_db)
    with pytest.raises(FrozenInstanceError):
        ult.roots = []


def test_table_depends_on_no_threshold():
    # The successor sets, the only thing that depended on minutil, are the
    # path table's; the utility table is built from the database alone.
    assert "minutil" not in inspect.signature(build_ult).parameters
    assert "successors" not in UtilityTable.__slots__


@pytest.mark.parametrize("seed", range(30))
def test_every_node_rru_matches_recomputation(seed):
    db = make_random_db(seed)
    ult = build_ult(db)
    for seq in db.sequences:
        assert ult.seq_items[seq.sid] == tuple(ev.item for ev in seq.events)
        assert ult.seq_utils[seq.sid] == tuple(ev.utility for ev in seq.events)
        assert ult.seq_rrus[seq.sid] == tuple(
            rru_at(db, PositionRef(seq.sid, pos)) for pos in range(1, len(seq.events) + 1)
        )


def test_table_shares_the_sequence_columns(sample_db):
    # d is pruned from s5 only; s1..s4 pass through the prune unchanged.
    pruned = prune_unpromising(sample_db, Threshold(64, 10))
    ult = build_ult(pruned)
    for seq in sample_db.sequences[:4]:
        assert ult.seq_items[seq.sid] is seq.items
        assert ult.seq_utils[seq.sid] is seq.utils
    s5 = pruned.sequences[4]
    assert ult.seq_items[5] is s5.items and ult.seq_utils[5] is s5.utils


@pytest.mark.parametrize("seed", range(30))
def test_ru_mode_stores_suffix_sums(seed):
    db = make_random_db(seed)
    ult = build_ult(db, use_rru=False)
    for seq in db.sequences:
        assert ult.seq_rrus[seq.sid] == tuple(
            ru_at(db, PositionRef(seq.sid, pos)) for pos in range(1, len(seq.events) + 1)
        )


def test_occurrences_small_scope(small_db):
    ult = build_ult(small_db)
    srt = SequenceRecordTable(ult)
    c = small_db.items.id_of("c")
    assert [occ.sid for occ in srt.root[c]] == [1, 2, 3]
    row = top_table(ult, c).rows[0]
    assert [(occ.sid, occ.entries) for occ in row.occurrences] == [
        (1, [(2, 2), (3, 3)]),
        (2, [(2, 2)]),
        (3, [(2, 2)]),
    ]
    assert holder_refs(srt, c) == [(1, 2), (1, 3), (2, 2), (3, 2)]
    f = small_db.items.id_of("f")
    assert holder_refs(srt, f) == [(3, 3)]
    assert 999 not in srt.root
    with pytest.raises(KeyError):
        init_row(srt, 999)


@pytest.mark.parametrize("seed", range(20))
def test_occurrence_chains_partition_all_nodes(seed):
    db = make_random_db(seed)
    ult = build_ult(db)
    srt = SequenceRecordTable(ult)
    seen = []
    for item in srt.root:
        refs = holder_refs(srt, item)
        # holder order matches a naive positional scan
        naive = [
            (seq.sid, k + 1)
            for seq in db.sequences
            for k, ev in enumerate(seq.events)
            if ev.item == item
        ]
        assert refs == naive
        seen.extend(refs)
    assert sorted(seen) == sorted(
        (seq.sid, k + 1) for seq in db.sequences for k in range(len(seq.events))
    )
    assert len(seen) == len(set(seen)) == len(ult)


def test_counts_and_header_order(sample_db):
    ult = build_ult(sample_db)
    assert len(ult) == sum(len(seq.events) for seq in sample_db.sequences)
    assert list(SequenceRecordTable(ult).root) == sample_db.distinct_items()


@pytest.mark.parametrize("seed", range(30))
def test_header_sums_match_bounds_module(seed):
    db = make_random_db(seed)
    ult = build_ult(db)
    expected = rru_sum_per_item(db)
    for item in SequenceRecordTable(ult).root:
        assert top_rrs(ult, item) == expected[item]


@pytest.mark.parametrize("seed", range(30))
def test_header_bound_ordering(seed):
    # seu >= a length-1 row's rrs >= the item's largest single-occurrence utility
    db = make_random_db(seed)
    ult = build_ult(db)
    seu = seu_per_item(db)
    for item in SequenceRecordTable(ult).root:
        best_single = max(
            ev.utility
            for seq in db.sequences
            for ev in seq.events
            if ev.item == item
        )
        assert seu[item] >= top_rrs(ult, item) >= best_single
