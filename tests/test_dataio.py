import io
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from husrm.bounds import prune_unpromising
from husrm.dataio import (
    ParseError,
    dedup_max_utility,
    format_rule,
    load_database,
    parse_native,
    parse_spmf,
    write_native,
    write_rules,
    write_stats,
)
from husrm.datagen import GenParams, generate
from husrm.miner import MiningConfig, mine
from husrm.model import ItemTable, Rule, Threshold, build_database

from conftest import SAMPLE_NATIVE, SAMPLE_ROWS
from reference import sequence_by_sid


def rows_of(db):
    return [[(db.items.token_of(ev.item), ev.utility) for ev in seq.events] for seq in db.sequences]


def test_parse_native_single_line():
    db = parse_native("a:1 c:2 c:3\n")
    assert len(db.sequences) == 1
    seq = db.sequences[0]
    assert [(db.items.token_of(ev.item), ev.utility) for ev in seq.events] == [
        ("a", 1),
        ("c", 2),
        ("c", 3),
    ]


def test_parse_native_empty_input():
    db = parse_native("")
    assert len(db.sequences) == 0
    assert db.total_utility == 0


def test_parse_native_sample_total_utility():
    db = parse_native(SAMPLE_NATIVE)
    assert len(db.sequences) == 5
    assert db.total_utility == 64


def test_parse_native_skips_blank_and_comment_lines():
    db = parse_native("# header\n\n  \na:1\n# tail\nb:2\n")
    assert [seq.sid for seq in db.sequences] == [1, 2]


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("a:1\nbroken\n", 2, "malformed"),
        ("a:1\nb:-2\n", 2, "negative"),
        ("a:1.5\n", 1, "non-integer"),
        (":3\n", 1, "empty item label"),
        (f"a:{2**64}\n", 1, "64-bit"),
    ],
)
def test_parse_native_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_native(text)
    assert err.value.line == line
    assert fragment in err.value.message


def test_parse_native_allows_colons_in_labels():
    db = parse_native("a:b:3\n")
    assert db.items.tokens() == ("a:b",)


def test_parse_spmf_basic():
    db = parse_spmf("1[5] -1 2[3] -1 -2\n")
    seq = db.sequences[0]
    assert [(db.items.token_of(ev.item), ev.utility) for ev in seq.events] == [
        ("1", 5),
        ("2", 3),
    ]


def test_parse_spmf_rejects_multi_item_itemsets():
    with pytest.raises(ParseError) as err:
        parse_spmf("1[5] 2[3] -1 -2\n")
    assert "simultaneous events" in err.value.message


def test_parse_spmf_ignores_sutility_trailer():
    db = parse_spmf("4[2] -1 -2 SUtility:2\n")
    seq = db.sequences[0]
    assert [(db.items.token_of(ev.item), ev.utility) for ev in seq.events] == [("4", 2)]
    assert db.total_utility == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1[5] -1\n", "missing -2"),
        ("1[5] -1 -2 junk\n", "after -2"),
        ("1[x] -1 -2\n", "malformed"),
        ("1[5] -2\n", "not closed"),
    ],
)
def test_parse_spmf_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_spmf(text)
    assert fragment in err.value.message


def test_parse_spmf_equivalent_to_native_sample():
    spmf = "\n".join(
        " ".join(f"{tok}[{util}] -1" for tok, util in row) + " -2" for row in SAMPLE_ROWS
    )
    assert parse_spmf(spmf) == build_database(SAMPLE_ROWS)


def test_load_database_detects_format(tmp_path):
    native = tmp_path / "db.usdb"
    native.write_text("a:1 b:2\n", encoding="utf-8")
    spmf = tmp_path / "db.txt"
    spmf.write_text("1[1] -1 2[2] -1 -2\n", encoding="utf-8")
    assert load_database(native).total_utility == 3
    assert load_database(spmf).total_utility == 3
    weird = tmp_path / "db.bin"
    weird.write_text("a:1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_database(weird)
    assert load_database(weird, "native").total_utility == 1


def test_load_database_rejects_an_unknown_format(tmp_path):
    path = tmp_path / "db.usdb"
    path.write_text("a:1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^unknown format 'bogus'$"):
        load_database(path, "bogus")


def test_native_round_trip_sample(sample_db):
    buf = io.StringIO()
    write_native(sample_db, buf)
    assert parse_native(buf.getvalue()) == sample_db


@given(
    st.lists(
        st.lists(
            st.tuples(
                st.text(alphabet="abcxyz", min_size=1, max_size=3),
                st.integers(min_value=0, max_value=50),
            ),
            min_size=1,
            max_size=6,
        ),
        min_size=0,
        max_size=6,
    )
)
def test_native_round_trip(rows):
    db = build_database(rows)
    buf = io.StringIO()
    write_native(db, buf)
    assert parse_native(buf.getvalue()) == db


@pytest.mark.parametrize(
    "parse, suffix, text",
    [
        (parse_native, ".usdb", "a:1\rb:2\r\nc:3\n"),
        (parse_spmf, ".spmf", "a[1] -1 -2\rb[2] -1 -2\r\nc[3] -1 -2\n"),
    ],
    ids=["native", "spmf"],
)
def test_str_and_file_input_split_lines_alike(tmp_path, parse, suffix, text):
    path = tmp_path / f"db{suffix}"
    path.write_bytes(text.encode("utf-8"))
    from_str = parse(text)
    assert [len(seq) for seq in from_str.sequences] == [1, 1, 1]
    assert from_str == load_database(path)


@pytest.mark.parametrize(
    "bom, end",
    [(bom, end) for bom in (b"", b"\xef\xbb\xbf") for end in (b"\n", b"\r\n", b"\r")],
    ids=["LF", "CRLF", "CR", "BOM-LF", "BOM-CRLF", "BOM-CR"],
)
def test_a_bad_byte_is_reported_on_its_line_whatever_the_line_ends(tmp_path, bom, end):
    # A leading BOM is not text: it must not shift the bad byte's line.
    path = tmp_path / "db.usdb"
    path.write_bytes(bom + end.join([b"a:1", b"b:2", b"c:\xff3", b"d:4", b""]))
    with pytest.raises(ParseError, match="^line 3: not valid UTF-8$"):
        load_database(path)
    path.write_bytes(bom + end.join([b"a:1", b"b:2", b"c:x3", b"d:4", b""]))
    with pytest.raises(ParseError, match="^line 3: "):
        load_database(path)


def test_write_native_rejects_a_sequence_that_would_read_as_a_comment():
    db = build_database([[("a", 1)], [("#a", 1), ("b", 2)]])
    with pytest.raises(ValueError, match="sequence 2 .*'#a'"):
        write_native(db, io.StringIO())


def test_write_native_round_trips_a_hash_label_after_the_first():
    db = build_database([[("b", 2), ("#a", 1)], [("c", 1), ("#", 3), ("#a", 4)]])
    buf = io.StringIO()
    write_native(db, buf)
    assert parse_native(buf.getvalue()) == db


def test_write_native_of_a_derived_database_keeps_rows_not_ids():
    db = build_database([[("a", 1), ("b", 5)], [("c", 1), ("b", 3)]])
    pruned = prune_unpromising(db, Threshold(7, 1))
    buf = io.StringIO()
    write_native(pruned, buf)
    assert buf.getvalue() == "b:5\nb:3\n"
    back = parse_native(buf.getvalue())
    assert back != pruned
    assert back.items.tokens() == ("b",)
    assert pruned.items.id_of("b") == 1
    assert rows_of(back) == rows_of(pruned) == [[("b", 5)], [("b", 3)]]
    assert [seq.sid for seq in back.sequences] == [1, 2]


def test_dedup_keeps_max_and_earliest_on_tie(sample_db):
    deduped = dedup_max_utility(sample_db)
    s4 = sequence_by_sid(deduped, 4)
    toks = [(deduped.items.token_of(ev.item), ev.utility) for ev in s4.events]
    # a's max utility 3 sits after b and c, so retained order is b, c, a
    assert toks == [("b", 6), ("c", 3), ("a", 3)]

    tie = build_database([[("x", 5), ("x", 5)]])
    deduped_tie = dedup_max_utility(tie)
    assert len(deduped_tie.sequences[0].events) == 1


def test_dedup_identity_on_duplicate_free(small_db):
    # rows s1 has duplicate c; use a duplicate-free database instead
    db = build_database([[("a", 1), ("b", 2)], [("c", 3)]])
    deduped = dedup_max_utility(db)
    assert deduped == db
    assert all(new is old for old, new in zip(db.sequences, deduped.sequences))


@given(
    st.lists(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.integers(min_value=0, max_value=9)),
            min_size=1,
            max_size=10,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_dedup_idempotent_and_at_most_once(rows):
    db = build_database(rows)
    once = dedup_max_utility(db)
    assert dedup_max_utility(once) == once
    for seq in once.sequences:
        items = [ev.item for ev in seq.events]
        assert len(items) == len(set(items))


def test_write_rules_golden_lines(sample_db):
    items = sample_db.items
    a, c, b, e = (items.id_of(t) for t in "acbe")
    buf = io.StringIO()
    write_rules(
        [Rule((a,), (c,), 13, 3, 4), Rule((c, e), (b,), 16, 1, 1)], items, buf
    )
    assert buf.getvalue() == (
        "a ==> c #UTIL: 13 #SUP: 3 #CONF: 0.7500\n"
        "c,e ==> b #UTIL: 16 #SUP: 1 #CONF: 1.0000\n"
    )


def test_write_rules_empty():
    buf = io.StringIO()
    write_rules([], ItemTable(), buf)
    assert buf.getvalue() == ""


def test_conf_rounding_is_half_up():
    items = ItemTable(["x", "y"])
    buf = io.StringIO()
    write_rules([Rule((0,), (1,), 1, 2, 3)], items, buf)  # 2/3 -> 0.6667
    assert "#CONF: 0.6667" in buf.getvalue()
    buf = io.StringIO()
    write_rules([Rule((0,), (1,), 1, 1, 16)], items, buf)  # 0.0625 exact
    assert "#CONF: 0.0625" in buf.getvalue()
    buf = io.StringIO()
    write_rules([Rule((0,), (1,), 1, 1, 8)], items, buf)  # 0.125 at 4dp stays exact
    assert "#CONF: 0.1250" in buf.getvalue()


def test_write_rules_sorted(sample_db):
    items = sample_db.items
    a, c, b, e = (items.id_of(t) for t in "acbe")
    rules = [
        Rule((a,), (c,), 13, 3, 4),
        Rule((c, e), (b,), 16, 1, 1),
        Rule((b,), (c,), 16, 2, 3),
        Rule((e,), (b,), 14, 1, 1),
    ]
    buf = io.StringIO()
    write_rules(rules, items, buf, sort=True)
    firsts = [line.split(" ==> ")[0] for line in buf.getvalue().splitlines()]
    assert firsts == ["b", "c,e", "e", "a"]


def test_write_stats_contract(sample_db):
    minutil = Threshold.from_string("0.1").times(sample_db.total_utility)
    cfg = MiningConfig(minutil, Threshold.from_string("0.6"))
    _, stats = mine(sample_db, cfg)
    buf = io.StringIO()
    write_stats(stats, buf)
    lines = buf.getvalue().splitlines()
    assert "rules=4" in lines
    assert "sequences=5" in lines
    assert "distinct_items=6" in lines
    assert "items_after_pruning=5" in lines
    assert "minutil_num=64" in lines
    assert "minutil_den=10" in lines
    keys = [line.split("=")[0] for line in lines]
    assert keys == [
        "sequences",
        "distinct_items",
        "items_after_pruning",
        "minutil_num",
        "minutil_den",
        "candidates",
        "rules",
        "srtgrowth_calls",
        "rrs_prunes",
        "runtime_ms",
        "view_prunes",
        "iip_prunes",
    ]

    # identical runs differ at most in runtime_ms
    _, stats2 = mine(sample_db, cfg)
    buf2 = io.StringIO()
    write_stats(stats2, buf2)
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("runtime_ms=")]
    assert strip(buf.getvalue()) == strip(buf2.getvalue())


def test_format_rule_single(sample_db):
    items = sample_db.items
    rule = Rule((items.id_of("e"),), (items.id_of("b"),), 14, 1, 1)
    assert format_rule(rule, items) == "e ==> b #UTIL: 14 #SUP: 1 #CONF: 1.0000"


def test_format_rule_and_unsorted_write_rules_copy_no_token_table(sample_db, monkeypatch):
    # Each line reads only its own tokens, so one format_rule call costs
    # O(rule length), not O(items).
    items = sample_db.items
    e, b, c = items.id_of("e"), items.id_of("b"), items.id_of("c")
    rules = [Rule((e,), (b,), 14, 1, 1), Rule((c, e), (b,), 9, 2, 3)]

    def no_copy(self):
        raise AssertionError("ItemTable.tokens() called")

    monkeypatch.setattr(ItemTable, "tokens", no_copy)
    assert format_rule(rules[0], items) == "e ==> b #UTIL: 14 #SUP: 1 #CONF: 1.0000"
    buf = io.StringIO()
    write_rules(rules, items, buf)
    assert buf.getvalue() == "".join(reference_line(r, items) for r in rules)


def reference_line(rule, items):
    """A rule's line spelled out token by token, with exact half-up rounding."""
    ant = ",".join(items.token_of(i) for i in rule.antecedent)
    cons = ",".join(items.token_of(i) for i in rule.consequent)
    k = math.floor(Fraction(rule.support, rule.antecedent_support) * 10_000 + Fraction(1, 2))
    return (
        f"{ant} ==> {cons} #UTIL: {rule.utility} #SUP: {rule.support}"
        f" #CONF: {k // 10_000}.{k % 10_000:04d}\n"
    )


def assert_written_as_reference(rules, items):
    buf = io.StringIO()
    write_rules(rules, items, buf)
    assert buf.getvalue() == "".join(reference_line(r, items) for r in rules)
    by_tokens = lambda r: (
        -r.utility,
        tuple(items.token_of(i) for i in r.antecedent),
        tuple(items.token_of(i) for i in r.consequent),
    )
    buf = io.StringIO()
    write_rules(rules, items, buf, sort=True)
    assert buf.getvalue() == "".join(reference_line(r, items) for r in sorted(rules, key=by_tokens))


def test_write_rules_of_a_rule_flood_match_the_reference():
    db = generate(GenParams(400, 12, 12.0, 40, 1, 10, 1.0, seed=1))
    cfg = MiningConfig(Threshold.from_string("0.03").times(db.total_utility), Threshold(1, 10))
    rules, _ = mine(db, cfg)
    assert len(rules) > 1000
    assert_written_as_reference(rules, db.items)


def test_write_rules_when_the_first_antecedent_item_alternates():
    items = ItemTable(["a", "b", "c", "d"])
    a, b, c, d = range(4)
    rules = [
        Rule((a,), (c, d), 9, 2, 3),
        Rule((a, c), (d,), 9, 2, 2),
        Rule((b,), (c, d), 7, 2, 3),
        Rule((b, c), (d,), 7, 1, 2),
        Rule((a,), (c, d), 5, 1, 3),
        Rule((a, c), (d,), 5, 1, 2),
        Rule((a,), (c,), 4, 2, 3),
        Rule((a,), (d,), 4, 2, 3),
    ]
    assert_written_as_reference(rules, items)


def test_write_rules_keeps_colons_and_non_ascii_in_labels():
    items = ItemTable(["a:b", "é", "ß:1", "日本"])
    rules = [
        Rule((0, 1), (2,), 12, 2, 3),
        Rule((0,), (1, 2), 12, 2, 3),
        Rule((3,), (0, 1), 30, 1, 1),
    ]
    buf = io.StringIO()
    write_rules(rules[:1], items, buf)
    assert buf.getvalue() == "a:b,é ==> ß:1 #UTIL: 12 #SUP: 2 #CONF: 0.6667\n"
    assert format_rule(rules[2], items) == "日本 ==> a:b,é #UTIL: 30 #SUP: 1 #CONF: 1.0000"
    assert_written_as_reference(rules, items)


def test_loaded_database_keeps_each_event_once(tmp_path):
    # Two shared columns per sequence cost about 30 bytes per event on
    # this shape; one Event object per event cost over 80.
    path = tmp_path / "gen.usdb"
    with open(path, "w", encoding="utf-8") as stream:
        write_native(generate(GenParams(3000, 1000, 6.0, 40, seed=1)), stream)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        db = load_database(path)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    events = sum(map(len, db.sequences))
    assert kept / events < 45
