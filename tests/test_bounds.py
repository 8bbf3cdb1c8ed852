import pytest
from hypothesis import given
from hypothesis import strategies as st

from husrm.bounds import prune_unpromising, rru_values, ru_values, seu_per_item
from husrm.model import Threshold, build_database

from conftest import make_random_db
from reference import PositionRef, rru_at, rru_sum_per_item, ru_at, sequence_by_sid


def naive_seu(db, distinct_max=True):
    """Independent per-sequence recomputation."""
    totals = {}
    for seq in db.sequences:
        by_item = {}
        for ev in seq.events:
            by_item.setdefault(ev.item, []).append(ev.utility)
        term = (
            sum(max(us) for us in by_item.values())
            if distinct_max
            else sum(ev.utility for ev in seq.events)
        )
        for item in by_item:
            totals[item] = totals.get(item, 0) + term
    return totals


def test_seu_sample_values(sample_db):
    seu = seu_per_item(sample_db)
    items = sample_db.items
    # f occurs only in s3: 2 + 2 + 10
    assert seu[items.id_of("f")] == 14
    # d occurs only in s5: 1 + 1 + 4
    assert seu[items.id_of("d")] == 6
    assert seu == naive_seu(sample_db)


def test_seu_absent_item(sample_db):
    assert seu_per_item(sample_db).get(999, 0) == 0


def test_seu_forms_agree_without_duplicates():
    db = build_database([[("a", 1), ("b", 2)], [("b", 3), ("c", 4)]])
    assert seu_per_item(db) == naive_seu(db, distinct_max=False)


def test_seu_literal_form(sample_db):
    plain = naive_seu(sample_db, distinct_max=False)
    tight = seu_per_item(sample_db)
    assert tight.keys() == plain.keys()
    assert all(tight[i] <= plain[i] for i in tight)
    assert any(tight[i] < plain[i] for i in tight)


def test_prune_removes_below_threshold(sample_db):
    minutil = Threshold(64, 10)
    pruned = prune_unpromising(sample_db, minutil)
    d = sample_db.items.id_of("d")
    assert all(ev.item != d for seq in pruned.sequences for ev in seq.events)
    assert [seq.sid for seq in pruned.sequences] == [1, 2, 3, 4, 5]
    s5 = sequence_by_sid(pruned, 5)
    assert [sample_db.items.token_of(ev.item) for ev in s5.events] == ["a", "b"]


def test_prune_keeps_an_untouched_sequence_as_the_same_object(sample_db):
    # Only d (seu 6, in s5 alone) falls below 6.4.
    pruned = prune_unpromising(sample_db, Threshold(64, 10))
    same = [new is old for old, new in zip(sample_db.sequences, pruned.sequences)]
    assert same == [True, True, True, True, False]


def test_prune_zero_threshold_is_identity(sample_db):
    assert prune_unpromising(sample_db, Threshold(0, 1)) == sample_db


def test_prune_drops_emptied_sequences_and_keeps_sids():
    # seu: x -> 1 (s1 only), y -> 50 + 2
    db = build_database([[("x", 1)], [("y", 50)], [("y", 2)]])
    pruned = prune_unpromising(db, Threshold(20, 1))
    assert [seq.sid for seq in pruned.sequences] == [2, 3]
    assert sequence_by_sid(pruned, 3).events[0].utility == 2


def test_prune_is_single_pass():
    # After removing x, y's recomputed seu would fall below the bar too;
    # a single pass keeps y anyway.
    db = build_database([[("y", 4), ("x", 3)], [("y", 2)]])
    # seu: x -> 7; y -> 7 + 2 = 9. minutil 8 removes x only.
    pruned = prune_unpromising(db, Threshold(8, 1))
    present = {db.items.token_of(i) for i in pruned.distinct_items()}
    assert present == {"y"}
    assert seu_per_item(pruned)[db.items.id_of("y")] < 8


def test_ru_golden_values(sample_db):
    assert ru_at(sample_db, PositionRef(1, 1)) == 6
    assert ru_at(sample_db, PositionRef(4, 1)) == 17


def test_rru_golden_values(sample_db):
    assert rru_at(sample_db, PositionRef(1, 1)) == 4
    assert rru_at(sample_db, PositionRef(4, 1)) == 11


def test_bounds_at_last_position(sample_db):
    for seq in sample_db.sequences:
        ref = PositionRef(seq.sid, len(seq.events))
        assert ru_at(sample_db, ref) == seq.events[-1].utility
        assert rru_at(sample_db, ref) == seq.events[-1].utility


def naive_rru(events, k):
    """Definition-level recomputation at 0-based position k."""
    own = events[k]
    best = {}
    for ev in events[k + 1 :]:
        if ev.item == own.item:
            continue
        best[ev.item] = max(best.get(ev.item, 0), ev.utility)
    return own.utility + sum(best.values())


@pytest.mark.parametrize("seed", range(40))
def test_fast_value_passes_match_definitions(seed):
    db = make_random_db(seed)
    for seq in db.sequences:
        rrus, term = rru_values(seq.items, seq.utils)
        best: dict[int, int] = {}
        for ev in seq.events:
            best[ev.item] = max(best.get(ev.item, 0), ev.utility)
        assert term == sum(best.values())
        rus = ru_values(seq.utils)
        for k in range(len(seq.events)):
            ref = PositionRef(seq.sid, k + 1)
            assert rrus[k] == rru_at(db, ref) == naive_rru(seq.events, k)
            assert rus[k] == ru_at(db, ref) == sum(
                ev.utility for ev in seq.events[k:]
            )


@pytest.mark.parametrize("seed", range(40))
def test_rru_never_exceeds_ru(seed):
    db = make_random_db(seed)
    for seq in db.sequences:
        for k in range(len(seq.events)):
            ref = PositionRef(seq.sid, k + 1)
            assert rru_at(db, ref) <= ru_at(db, ref)


@given(
    st.lists(
        st.lists(
            st.tuples(st.sampled_from("abcdef"), st.integers(min_value=0, max_value=9)),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_rru_equals_ru_on_duplicate_free(rows):
    dedup_rows = []
    for row in rows:
        seen = set()
        out = [(t, u) for t, u in row if t not in seen and not seen.add(t)]
        dedup_rows.append(out)
    db = build_database(dedup_rows)
    for seq in db.sequences:
        for k in range(len(seq.events)):
            ref = PositionRef(seq.sid, k + 1)
            assert rru_at(db, ref) == ru_at(db, ref)


def test_rru_sum_small_scope(small_db):
    sums = rru_sum_per_item(small_db)
    a = small_db.items.id_of("a")
    # s1 gives 4, s3 gives 2 + max(c:2, f:10) + ... = 14
    assert sums[a] == 18


def test_rru_sum_single_occurrence_item(small_db):
    f = small_db.items.id_of("f")
    assert rru_sum_per_item(small_db)[f] == rru_at(small_db, PositionRef(3, 3))


def test_rru_sum_full_sample_matches_per_occurrence_max(sample_db):
    sums = rru_sum_per_item(sample_db)
    expected = {}
    for seq in sample_db.sequences:
        best = {}
        for k, ev in enumerate(seq.events):
            value = naive_rru(seq.events, k)
            if value > best.get(ev.item, -1):
                best[ev.item] = value
        for item, value in best.items():
            expected[item] = expected.get(item, 0) + value
    assert sums == expected
    assert sums[sample_db.items.id_of("a")] == 34
