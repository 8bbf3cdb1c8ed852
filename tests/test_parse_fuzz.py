"""Fuzzing of both input parsers: every input parses or raises ParseError.

Inputs mix well-formed tokens with hard cases: CRLF and bare CR line
ends, a byte order mark, non-ASCII labels and digits, utilities at and
past 2^64 - 1 (and past int()'s digit limit), and ``-1``/``-2`` markers
in any place. At the byte level they also hold bytes that are not UTF-8.
A text parses the same from a str as from a file.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from husrm import cli
from husrm.dataio import ParseError, load_database, parse_native, parse_spmf
from husrm.model import U64_MAX

BOM = "\ufeff"

labels = st.text(alphabet="ab:#[]-1é中٣" + BOM, min_size=0, max_size=4)
utilities = st.one_of(
    st.integers(min_value=0, max_value=12),
    st.sampled_from([U64_MAX - 1, U64_MAX, U64_MAX + 1, 10**30]),
    st.integers(min_value=-5, max_value=-1),
).map(str) | st.sampled_from(["٣", "1.5", "", "9" * 4400, "0" * 4400 + "7"])
tokens = st.one_of(
    st.builds(lambda l, u: f"{l}:{u}", labels, utilities),
    st.builds(lambda l, u: f"{l}[{u}]", labels, utilities),
    st.sampled_from(["-1", "-2", "SUtility:3", "#", "%", "@"]),
    labels,
)
line_ends = st.sampled_from(["\n", "\r\n", "\r"])
lines = st.builds(
    lambda toks, end: " ".join(toks) + end, st.lists(tokens, max_size=6), line_ends
)
texts = st.builds(
    lambda bom, body: (BOM if bom else "") + "".join(body),
    st.booleans(),
    st.lists(lines, max_size=5),
)


def parses_or_rejects(parse, data) -> None:
    try:
        db = parse(data)
    except ParseError:
        return
    for seq in db.sequences:
        assert seq.events
        for ev in seq.events:
            assert 0 <= ev.utility <= U64_MAX


@given(texts)
def test_native_parser_parses_or_rejects(text):
    parses_or_rejects(parse_native, text)


@given(texts)
def test_spmf_parser_parses_or_rejects(text):
    parses_or_rejects(parse_spmf, text)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60)
@given(
    texts,
    st.lists(st.binary(min_size=1, max_size=2), max_size=2),
    st.sampled_from([".usdb", ".spmf"]),
)
def test_load_database_parses_or_rejects_any_bytes(fuzz_dir, text, junk, suffix):
    data = text.encode("utf-8")
    for piece in junk:
        data = data[: len(data) // 2] + piece + data[len(data) // 2 :]
    path = fuzz_dir / f"input{suffix}"
    path.write_bytes(data)
    parses_or_rejects(load_database, path)


@settings(max_examples=60)
@given(texts, st.sampled_from([".usdb", ".spmf"]))
def test_leading_bom_is_dropped(fuzz_dir, text, suffix):
    # Strip every leading BOM: the decoder drops only one, so a text that
    # starts with two would leave "plain" still marked.
    body = text.lstrip(BOM).encode("utf-8")
    plain = fuzz_dir / f"plain{suffix}"
    marked = fuzz_dir / f"marked{suffix}"
    plain.write_bytes(body)
    marked.write_bytes(b"\xef\xbb\xbf" + body)
    try:
        expected = load_database(plain)
    except ParseError as err:
        with pytest.raises(ParseError) as again:
            load_database(marked)
        assert again.value.line == err.line
        return
    assert load_database(marked) == expected


@settings(max_examples=60)
@given(texts, st.sampled_from([(parse_native, ".usdb"), (parse_spmf, ".spmf")]))
@example("a:1\rb:2\n", (parse_native, ".usdb"))
@example("a[1] -1 -2\rb[2] -1 -2\n", (parse_spmf, ".spmf"))
@example("a:1\rb\n", (parse_native, ".usdb"))
def test_str_and_file_input_parse_alike(fuzz_dir, text, case):
    parse, suffix = case
    # A file loses one leading BOM to its decoder; a str keeps it.
    text = text.lstrip(BOM)
    path = fuzz_dir / f"same{suffix}"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = parse(text)
    except ParseError as err:
        with pytest.raises(ParseError) as again:
            load_database(path)
        assert again.value.line == err.line
        return
    assert load_database(path) == expected


def test_bom_file_mines_one_item_not_two(tmp_path, capsys):
    path = tmp_path / "bom.usdb"
    path.write_bytes(b"\xef\xbb\xbfa:1 b:2\nb:3 a:1\n")
    db = load_database(path)
    assert db.items.tokens() == ("a", "b")
    code = cli.main(["mine", str(path), "--minutil", "1", "--minconf", "0.1"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.splitlines() == [
        "a ==> b #UTIL: 3 #SUP: 1 #CONF: 0.5000",
        "b ==> a #UTIL: 4 #SUP: 1 #CONF: 0.5000",
    ]
    assert "distinct_items=2" in out.err


def test_bom_spmf_file(tmp_path):
    path = tmp_path / "bom.spmf"
    path.write_bytes(b"\xef\xbb\xbfa[1] -1 b[2] -1 -2\n")
    assert load_database(path).items.tokens() == ("a", "b")


def test_invalid_utf8_is_a_parse_error_with_its_line(tmp_path, capsys):
    path = tmp_path / "bad.usdb"
    path.write_bytes(b"a:1\nb:2\n\xff:3\n")
    with pytest.raises(ParseError) as err:
        load_database(path)
    assert err.value.line == 3
    assert cli.main(["mine", str(path), "--minutil", "1"]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("parse", [parse_native, parse_spmf])
def test_utility_past_int_digit_limit_is_out_of_range(parse):
    text = "a:" + "9" * 5000 if parse is parse_native else "a[" + "9" * 5000 + "] -1 -2"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "64-bit" in err.value.message


@pytest.mark.parametrize("parse", [parse_native, parse_spmf])
def test_zero_padded_utility_past_int_digit_limit_keeps_its_value(parse):
    padded = "0" * 5000 + "7"
    text = f"a:{padded}" if parse is parse_native else f"a[{padded}] -1 -2"
    assert parse(text).total_utility == 7


def test_spmf_rejects_non_ascii_digits():
    with pytest.raises(ParseError) as err:
        parse_spmf("a[٣] -1 -2\n")
    assert "malformed" in err.value.message
