"""Cyclic garbage collection is paused inside parsing and mining.

The pause is safe only because nothing the pipeline builds holds a
reference cycle, so these tests check both halves: the caller's
collector setting comes back on every exit path, and load + mine leave
no unreachable objects behind for a collection to find.
"""

import gc
import io

import pytest

import husrm.miner as miner
from husrm.datagen import GenParams, generate
from husrm.dataio import ParseError, load_database, parse_native, parse_spmf, write_native
from husrm.miner import VARIANTS, mine, variant_config
from husrm.model import InvariantError, build_database, gc_paused
from husrm.srt import SequenceRecordTable

from conftest import SAMPLE_NATIVE, SAMPLE_ROWS, deep_path_rows, thr

SAMPLE_SPMF = "a[1] -1 c[2] -1 -2\nb[5] -1 c[2] -1 -2\n"


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Start the test with the collector on or off; yields that state."""
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    gc.enable()


def sample_config(db):
    return variant_config("rsc", thr("0.1").times(db.total_utility), thr("0.6"))


class RecordingLines(io.StringIO):
    """A text stream that notes the collector's state at every line read."""

    def __init__(self, text: str, seen: list[bool]) -> None:
        super().__init__(text)
        self.seen = seen

    def __next__(self) -> str:
        self.seen.append(gc.isenabled())
        return super().__next__()


def test_gc_paused_restores_the_state_it_found(collector):
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() is collector


def test_gc_paused_restores_the_state_on_an_exception(collector):
    with pytest.raises(KeyError):
        with gc_paused():
            raise KeyError("x")
    assert gc.isenabled() is collector


def test_mine_pauses_collection_and_restores_it(collector, monkeypatch):
    seen = []
    build_ult = miner.build_ult

    def recording_build_ult(*args, **kwargs):
        seen.append(gc.isenabled())
        return build_ult(*args, **kwargs)

    monkeypatch.setattr(miner, "build_ult", recording_build_ult)
    db = build_database(SAMPLE_ROWS)
    rules, _ = mine(db, sample_config(db))
    assert len(rules) == 4
    assert seen == [False]
    assert gc.isenabled() is collector


def test_mine_restores_collection_when_the_search_raises(collector, monkeypatch):
    def broken_push(self, row):
        raise InvariantError("injected")

    monkeypatch.setattr(SequenceRecordTable, "push_row", broken_push)
    db = build_database(SAMPLE_ROWS)
    with pytest.raises(InvariantError, match="injected"):
        mine(db, sample_config(db))
    assert gc.isenabled() is collector


@pytest.mark.parametrize(
    "parse, text",
    [(parse_native, SAMPLE_NATIVE), (parse_spmf, SAMPLE_SPMF)],
    ids=["native", "spmf"],
)
def test_parsers_pause_collection_and_restore_it(collector, parse, text):
    seen = []
    db = parse(RecordingLines(text, seen))
    assert db.sequences
    assert seen and not any(seen)
    assert gc.isenabled() is collector
    assert parse(text) == db
    assert gc.isenabled() is collector


@pytest.mark.parametrize(
    "parse, text",
    [(parse_native, "a:1\nb:x\n"), (parse_spmf, "a[1] -1 -2\nb[1] -1\n")],
    ids=["native", "spmf"],
)
def test_parsers_restore_collection_on_a_parse_error(collector, parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 2
    assert gc.isenabled() is collector


def test_load_database_restores_collection_on_a_parse_error(collector, tmp_path):
    path = tmp_path / "bad.usdb"
    path.write_bytes(b"a:1\n\xff:2\n")
    with pytest.raises(ParseError):
        load_database(path)
    assert gc.isenabled() is collector


# Each case: the database, and (delta, minconf) at which it mines rules.
# The deep path is two copies of one long run of distinct items mined at
# minutil = total utility, so the search grows a single path to the full
# length. rscp has no rrs gate and there visits every subsequence of the
# path, so it runs a short one.
CASES = {
    "sample": (lambda variant: build_database(SAMPLE_ROWS), ("0.1", "0.6")),
    "duplicate-heavy": (
        lambda variant: generate(
            GenParams(num_sequences=300, alphabet_size=3, avg_length=8, max_length=16, seed=5)
        ),
        ("0.02", "0.3"),
    ),
    "deep-path": (
        lambda variant: build_database(deep_path_rows(12 if variant == "rscp" else 1100)),
        ("1", "0.6"),
    ),
}


@pytest.mark.parametrize("dedup", [False, True], ids=["plain", "dedup"])
@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("case", list(CASES))
def test_load_and_mine_leave_no_cyclic_garbage(tmp_path, case, variant, dedup):
    make_db, (delta, minconf) = CASES[case]
    path = tmp_path / "db.usdb"
    with path.open("w", encoding="utf-8") as stream:
        write_native(make_db(variant), stream)
    gc.collect()
    gc.disable()
    try:
        db = load_database(path)
        assert gc.collect() == 0
        minutil = thr(delta).times(db.total_utility)
        rules, stats = mine(db, variant_config(variant, minutil, thr(minconf), dedup=dedup))
        assert rules
        assert gc.collect() == 0
        del db, rules, stats
        assert gc.collect() == 0
    finally:
        gc.enable()
