import itertools

import pytest

from husrm.model import Rule, Threshold, build_database
from husrm.oracle import (
    OracleConfig,
    max_embedding_utility,
    oracle_mine,
    support_of,
)

from conftest import canon, make_random_db, thr
from reference import sequence_by_sid


def enumerate_embedding_max(seq, pattern):
    """Exhaustive enumeration over all strictly increasing index tuples."""
    best = None
    n = len(seq.events)
    for combo in itertools.combinations(range(n), len(pattern)):
        if all(seq.events[j].item == pattern[k] for k, j in enumerate(combo)):
            total = sum(seq.events[j].utility for j in combo)
            if best is None or total > best:
                best = total
    return best


def test_max_embedding_small_cases(sample_db):
    items = sample_db.items
    a, c = items.id_of("a"), items.id_of("c")
    s1 = sequence_by_sid(sample_db, 1)
    # two embeddings: utilities 3 and 4
    assert enumerate_embedding_max(s1, (a, c)) == 4
    assert max_embedding_utility(s1, (a, c)) == 4
    s4 = sequence_by_sid(sample_db, 4)
    assert max_embedding_utility(s4, (a, c)) == 5
    s2 = sequence_by_sid(sample_db, 2)
    assert max_embedding_utility(s2, (a,)) is None


def test_max_embedding_rejects_empty_pattern(sample_db):
    with pytest.raises(ValueError):
        max_embedding_utility(sample_db.sequences[0], ())


@pytest.mark.parametrize("seed", range(30))
def test_max_embedding_matches_enumeration(seed):
    db = make_random_db(seed)
    present = db.distinct_items()
    patterns = [
        p
        for length in (1, 2, 3, 4)
        for p in itertools.permutations(present[:4], length)
    ]
    for seq in db.sequences:
        if len(seq.events) > 10:
            continue
        for pattern in patterns:
            assert max_embedding_utility(seq, pattern) == enumerate_embedding_max(
                seq, pattern
            )


def test_pattern_utility_over_database(sample_db):
    items = sample_db.items
    b, c = items.id_of("b"), items.id_of("c")
    total = sum(
        u
        for seq in sample_db.sequences
        if (u := max_embedding_utility(seq, (b, c))) is not None
    )
    assert total == 16


def test_support_examples(sample_db):
    items = sample_db.items
    assert support_of(sample_db, (items.id_of("b"), items.id_of("c"))) == 2
    assert support_of(sample_db, (items.id_of("a"),)) == 4
    long_pattern = tuple(items.id_of(t) for t in "acbef") + (items.id_of("d"),)
    assert support_of(sample_db, long_pattern) == 0


def test_oracle_sample_rules(sample_db):
    minutil = thr("0.1").times(sample_db.total_utility)
    rules, _ = oracle_mine(sample_db, OracleConfig(minutil, thr("0.6"), 8))
    items = sample_db.items
    a, c, b, e = (items.id_of(t) for t in "acbe")
    assert canon(rules) == {
        Rule((a,), (c,), 13, 3, 4),
        Rule((b,), (c,), 16, 2, 3),
        Rule((c, e), (b,), 16, 1, 1),
        Rule((e,), (b,), 14, 1, 1),
    }


def test_oracle_confidence_just_above_three_quarters(sample_db):
    minutil = thr("0.1").times(sample_db.total_utility)
    rules, _ = oracle_mine(sample_db, OracleConfig(minutil, thr("0.76"), 8))
    items = sample_db.items
    b, c, e = (items.id_of(t) for t in "bce")
    assert canon(rules) == {Rule((c, e), (b,), 16, 1, 1), Rule((e,), (b,), 14, 1, 1)}


def test_oracle_empty_database():
    db = build_database([])
    assert oracle_mine(db, OracleConfig(Threshold(0, 1), thr("0.5"), 8)) == ([], False)


def test_oracle_invariant_under_sequence_reordering():
    # ids depend on first-appearance order, so compare at the token level
    def token_canon(db, rules):
        tok = db.items.token_of
        return {
            (
                tuple(tok(i) for i in r.antecedent),
                tuple(tok(i) for i in r.consequent),
                r.utility,
                r.support,
                r.antecedent_support,
            )
            for r in rules
        }

    rows = [
        [("a", 3), ("b", 1)],
        [("b", 2), ("a", 5), ("c", 1)],
        [("c", 4), ("a", 2)],
    ]
    cfg_args = (Threshold(1, 1), thr("0.4"), 8)
    base_db = build_database(rows)
    base = token_canon(base_db, oracle_mine(base_db, OracleConfig(*cfg_args))[0])
    for perm in itertools.permutations(rows):
        db = build_database(list(perm))
        assert token_canon(db, oracle_mine(db, OracleConfig(*cfg_args))[0]) == base


def test_oracle_supports_match_containment_scans(sample_db):
    minutil = Threshold(0, 1)
    rules, _ = oracle_mine(sample_db, OracleConfig(minutil, thr("0.4"), 8))
    for rule in rules:
        pattern = rule.antecedent + rule.consequent
        assert rule.support == support_of(sample_db, pattern)
        assert rule.antecedent_support == support_of(sample_db, rule.antecedent)
        total = sum(
            u
            for seq in sample_db.sequences
            if (u := max_embedding_utility(seq, pattern)) is not None
        )
        assert rule.utility == total


def test_cap_warning_fires_when_truncated():
    db = build_database([[(t, 1) for t in "abc"]])
    rules, truncated = oracle_mine(db, OracleConfig(Threshold(0, 1), thr("0.5"), 2))
    assert truncated
    # length-2 rules still come out
    assert all(len(r.antecedent) + len(r.consequent) <= 2 for r in rules)


def test_no_cap_warning_when_enumeration_completes(sample_db):
    _, truncated = oracle_mine(sample_db, OracleConfig(Threshold(0, 1), thr("0.4"), 8))
    assert not truncated


@pytest.mark.parametrize("minconf", [Threshold(0, 1), Threshold(3, 2)])
def test_config_rejects_minconf_outside_zero_one(minconf):
    with pytest.raises(ValueError, match="minconf"):
        OracleConfig(Threshold(0, 1), minconf, 8)
    OracleConfig(Threshold(0, 1), Threshold(1, 1), 8)  # confidence 1 is valid


def test_config_requires_room_for_rules():
    with pytest.raises(ValueError):
        OracleConfig(Threshold(0, 1), thr("0.5"), 1)


def test_oracle_output_is_canonically_sorted(sample_db):
    rules, _ = oracle_mine(sample_db, OracleConfig(Threshold(0, 1), thr("0.4"), 8))
    keys = [(r.antecedent, r.consequent) for r in rules]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)  # so the full-field order is the same
    assert rules == sorted(rules)
