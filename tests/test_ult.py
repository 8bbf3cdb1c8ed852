from dataclasses import FrozenInstanceError

import pytest

from husrm.bounds import prune_unpromising, seu_per_item
from husrm.model import Threshold, build_database
from husrm.srt import init_row
from husrm.ult import build_ult

from conftest import make_random_db
from reference import PositionRef, rru_at, rru_sum_per_item, ru_at


def index_refs(ult, item):
    """The item's (sid, 1-based pos) pairs, in index iteration order."""
    by_sid = ult.item_positions.get(item, {})
    return [(sid, k + 1) for sid, positions in by_sid.items() for k in positions]


def test_single_node_database():
    db = build_database([[("x", 7)]])
    ult = build_ult(db)
    x = db.items.id_of("x")
    sid = db.sequences[0].sid
    assert len(ult) == 1
    assert ult.seq_items == {sid: (x,)}
    assert ult.seq_utils == {sid: (7,)}
    assert ult.seq_rrus == {sid: (7,)}
    assert ult.item_positions == {x: {sid: [0]}}
    row = init_row(ult, x)
    assert (row.item, row.rrs) == (x, 7)


def test_table_is_frozen(small_db):
    ult = build_ult(small_db)
    with pytest.raises(FrozenInstanceError):
        ult.successors = {}


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
    c = small_db.items.id_of("c")
    assert ult.item_positions[c] == {1: [1, 2], 2: [1], 3: [1]}
    assert index_refs(ult, c) == [(1, 2), (1, 3), (2, 2), (3, 2)]
    f = small_db.items.id_of("f")
    assert index_refs(ult, f) == [(3, 3)]
    assert 999 not in ult.item_positions
    with pytest.raises(KeyError):
        init_row(ult, 999)


@pytest.mark.parametrize("seed", range(20))
def test_occurrence_chains_partition_all_nodes(seed):
    db = make_random_db(seed)
    ult = build_ult(db)
    seen = []
    for item in ult.item_positions:
        refs = index_refs(ult, item)
        # index order matches a naive positional scan
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
    assert list(ult.item_positions) == sample_db.distinct_items()


@pytest.mark.parametrize("seed", range(30))
def test_header_sums_match_bounds_module(seed):
    db = make_random_db(seed)
    ult = build_ult(db)
    expected = rru_sum_per_item(db)
    for item in ult.item_positions:
        assert init_row(ult, item).rrs == expected[item]


@pytest.mark.parametrize("seed", range(30))
def test_header_bound_ordering(seed):
    # seu >= a length-1 row's rrs >= the item's largest single-occurrence utility
    db = make_random_db(seed)
    ult = build_ult(db)
    seu = seu_per_item(db)
    for item in ult.item_positions:
        best_single = max(
            ev.utility
            for seq in db.sequences
            for ev in seq.events
            if ev.item == item
        )
        assert seu[item] >= init_row(ult, item).rrs >= best_single
