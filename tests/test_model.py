from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from husrm.model import (
    ItemTable,
    Rule,
    Sequence,
    SequenceDatabase,
    Threshold,
    build_database,
    compare_at_least,
    confidence_at_least,
    decimal_digits,
)


def test_interning_is_a_bijection():
    table = ItemTable()
    ids = [table.intern(tok) for tok in ["x", "y", "x", "z", "y"]]
    assert ids == [0, 1, 0, 2, 1]
    assert [table.token_of(i) for i in range(3)] == ["x", "y", "z"]
    assert table.id_of("z") == 2
    assert len(table) == 3
    assert "y" in table.tokens() and "w" not in table.tokens()


def test_interning_rejects_empty_label():
    with pytest.raises(ValueError):
        ItemTable().intern("")


@given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=4), min_size=1))
def test_interning_round_trip(tokens):
    table = ItemTable()
    for tok in tokens:
        assert table.token_of(table.intern(tok)) == tok
    assert len(table) == len(set(tokens))


def test_database_ids_follow_first_appearance(sample_db):
    assert sample_db.items.tokens() == ("a", "c", "b", "e", "f", "d")
    assert sample_db.total_utility == 64
    assert [seq.sid for seq in sample_db.sequences] == [1, 2, 3, 4, 5]


def test_build_database_rejects_bad_input():
    with pytest.raises(ValueError):
        build_database([[("a", -1)]])
    with pytest.raises(ValueError):
        build_database([[("a b", 1)]])
    with pytest.raises(ValueError):
        build_database([[("", 1)]])
    # Utilities are not coerced: int() would truncate 2.7 to 2 and read "5" as 5.
    with pytest.raises(ValueError):
        build_database([[("a", 2.7)]])
    with pytest.raises(ValueError):
        build_database([[("a", "5")]])


@pytest.mark.parametrize(
    "sequences, message",
    [
        ([Sequence(1, (0,), (3,)), Sequence(2, (), ())], "sequence 2 is empty"),
        ([Sequence(1, (0, 1), (3,))], "sequence 1 has 2 items but 1 utilities"),
        ([Sequence(1, (0,), (3, 4))], "sequence 1 has 1 items but 2 utilities"),
        ([Sequence(1, (0,), (3,)), Sequence(1, (1,), (4,))], "duplicate sids"),
    ],
)
def test_database_rejects_empty_ragged_or_repeated_sequences(sequences, message):
    with pytest.raises(ValueError, match=message):
        SequenceDatabase(sequences, ItemTable(["a", "b"]))


def test_threshold_parsing():
    assert Threshold.from_string("0.1") == Threshold(1, 10)
    assert Threshold.from_string("6.4") == Threshold(64, 10)
    assert Threshold.from_string("64.01") == Threshold(6401, 100)
    assert Threshold.from_string("1") == Threshold(1, 1)
    assert Threshold.from_string(".5") == Threshold(5, 10)
    assert Threshold.from_string("5.") == Threshold(5, 1)
    # Arabic-Indic and fullwidth digits match \d; the input parsers refuse them too.
    non_ascii = ("\u0663.\u0665", "\uff11", "\uff10.\uff19", "1\u0660", "0.\u0669")
    for bad in ("", ".", "-0.1", "1e-3", "1.2.3", "abc", *non_ascii):
        with pytest.raises(ValueError):
            Threshold.from_string(bad)


def test_threshold_past_the_int_string_limit_is_not_a_decimal_threshold():
    # CPython refuses int() on more digits than sys.get_int_max_str_digits()
    # (4300 by default); the threshold's own error names the digit count.
    with pytest.raises(ValueError, match=r"^not a decimal threshold: 4301 digits$"):
        Threshold.from_string("1" * 4301)
    with pytest.raises(ValueError, match=r"^not a decimal threshold: 4301 digits$"):
        Threshold.from_string("0." + "5" * 4300)
    assert Threshold.from_string("1" * 4300).denominator == 1


@pytest.mark.parametrize("digits", [1, 2, 3, 9, 10, 300, 4300, 4301, 9000])
def test_decimal_digits_at_each_power_of_ten(digits):
    # 10**(d - 1) is the smallest d-digit number and 10**d - 1 the largest.
    assert decimal_digits(10 ** (digits - 1)) == digits
    assert decimal_digits(10**digits - 1) == digits


@given(st.integers(min_value=0, max_value=10**400))
@example(0)
def test_decimal_digits_match_str(n):
    assert decimal_digits(n) == len(str(n))


def test_threshold_times():
    assert Threshold(1, 10).times(64) == Threshold(64, 10)


def test_compare_at_least_examples():
    assert compare_at_least(13, Threshold(64, 10)) is True
    assert compare_at_least(0, Threshold(0, 1)) is True
    # 6 * 10 = 60 < 64
    assert compare_at_least(6, Threshold(64, 10)) is False


def test_confidence_at_least_examples():
    minconf = Threshold(6, 10)
    assert confidence_at_least(3, 4, minconf) is True
    assert confidence_at_least(2, 4, minconf) is False


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=100), st.integers(min_value=0, max_value=100))
def test_full_confidence_dominates_any_valid_minconf(k, den, num):
    if num > den:
        num = den
    assert confidence_at_least(k, k, Threshold(max(num, 0), den)) is True


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_compare_monotone_in_value(a, b, num, den):
    lo, hi = sorted((a, b))
    t = Threshold(num, den)
    if compare_at_least(lo, t):
        assert compare_at_least(hi, t)


def test_rule_validation():
    rule = Rule((0,), (1,), 13, 3, 4)
    assert rule.confidence == Fraction(3, 4)
    assert 0 < rule.confidence <= 1
    with pytest.raises(ValueError):
        Rule((), (1,), 1, 1, 1)
    with pytest.raises(ValueError):
        Rule((0,), (), 1, 1, 1)
    with pytest.raises(ValueError):
        Rule((0, 1), (1,), 1, 1, 1)  # repeated item
    with pytest.raises(ValueError):
        Rule((0,), (1,), 1, 3, 2)  # support above antecedent support
    with pytest.raises(ValueError):
        Rule((0,), (1,), 1, 0, 2)  # zero support
