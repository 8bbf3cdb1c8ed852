"""Acceptance suite: one test per release criterion, each printing a
PASS line when it holds. Expected values are exact; wall-clock budgets
are asserted where the criterion sets one."""

import time
from fractions import Fraction

import pytest

import husrm.miner as miner
from husrm import cli
from husrm.datagen import GenParams, generate
from husrm.miner import MiningConfig, mine
from husrm.model import Rule, build_database
from husrm.oracle import OracleConfig, max_embedding_utility, oracle_mine
from husrm.srt import SequenceRecordTable, init_row, scan_extensions
from husrm.ult import build_ult

from conftest import SAMPLE_NATIVE, SAMPLE_ROWS, canon, make_random_db, share, thr, view_bound
from reference import PositionRef, rru_at, ru_at

DELTAS = ("0.01", "0.05", "0.1", "0.3")
MINCONFS = ("0.4", "0.6", "0.8", "1.0")
CORPUS_SIZE = 500


@pytest.fixture(scope="session")
def corpus():
    return [make_random_db(seed) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def grid_results(corpus):
    """Canonical miner rule sets for every (database, delta, minconf) cell."""
    results = {}
    for i, db in enumerate(corpus):
        for delta in DELTAS:
            minutil = thr(delta).times(db.total_utility)
            for conf in MINCONFS:
                rules, _ = mine(db, MiningConfig(minutil, thr(conf)))
                results[i, delta, conf] = canon(rules)
    return results


def test_criterion_1_worked_example_reproduction():
    db = build_database(SAMPLE_ROWS)
    start = time.perf_counter()
    rules, _ = mine(db, MiningConfig(thr("0.1").times(db.total_utility), thr("0.6")))
    elapsed = time.perf_counter() - start
    items = db.items
    a, c, b, e = (items.id_of(t) for t in "acbe")
    expected = {
        Rule((a,), (c,), 13, 3, 4),
        Rule((b,), (c,), 16, 2, 3),
        Rule((c, e), (b,), 16, 1, 1),
        Rule((e,), (b,), 14, 1, 1),
    }
    assert canon(rules) == expected
    assert sorted(r.utility for r in rules) == [13, 14, 16, 16]
    assert sorted(r.confidence for r in rules) == [
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(1),
        Fraction(1),
    ]
    assert elapsed < 1.0
    print("acceptance criterion 1 (worked example): PASS")


def test_criterion_2_micro_value_goldens():
    db = build_database(SAMPLE_ROWS)
    items = db.items
    a, c, b = items.id_of("a"), items.id_of("c"), items.id_of("b")

    assert ru_at(db, PositionRef(1, 1)) == 6
    assert rru_at(db, PositionRef(1, 1)) == 4
    assert ru_at(db, PositionRef(4, 1)) == 17
    assert rru_at(db, PositionRef(4, 1)) == 11

    ult = build_ult(db)
    srt = SequenceRecordTable(ult)
    srt.push_row(init_row(srt, a))
    by_item = {row.item: row for row in scan_extensions(ult, srt)}
    assert by_item[c].rrs == 26
    srt.push_row(by_item[b])
    by_item2 = {row.item: row for row in scan_extensions(ult, srt)}
    assert by_item2[c].rrs == 14

    total = sum(
        u
        for seq in db.sequences
        if (u := max_embedding_utility(seq, (b, c))) is not None
    )
    assert total == 16

    rules, _ = mine(db, MiningConfig(thr("0.1").times(db.total_utility), thr("0.6")))
    conf_ac = next(r for r in rules if r.antecedent == (a,) and r.consequent == (c,))
    assert conf_ac.confidence == Fraction(3, 4)

    small = build_database(SAMPLE_ROWS[:3])
    ult3 = build_ult(small)
    srt3 = SequenceRecordTable(ult3)
    srt3.push_row(init_row(srt3, small.items.id_of("a")))
    row_c = next(
        row for row in scan_extensions(ult3, srt3) if row.item == small.items.id_of("c")
    )
    srt3.push_row(row_c)
    row_f = next(
        row for row in scan_extensions(ult3, srt3) if row.item == small.items.id_of("f")
    )
    srt3.push_row(row_f)
    assert [r.until_utility for r in srt3.rows] == [3, 8, 14]
    assert [r.rrs for r in srt3.rows] == [18, 18, 14]
    assert [len(r.occurrences) for r in srt3.rows] == [2, 2, 1]
    print("acceptance criterion 2 (micro-value goldens): PASS")


def test_criterion_3_reference_equivalence(corpus, grid_results):
    start = time.perf_counter()
    for i, db in enumerate(corpus):
        for delta in DELTAS:
            minutil = thr(delta).times(db.total_utility)
            for conf in MINCONFS:
                expected = canon(
                    oracle_mine(db, OracleConfig(minutil, thr(conf), max_len=8))[0]
                )
                assert grid_results[i, delta, conf] == expected, (i, delta, conf)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"acceptance criterion 3 (reference equivalence, {CORPUS_SIZE} databases,"
        f" {len(DELTAS) * len(MINCONFS)} threshold cells, {elapsed:.1f}s): PASS"
    )


def has_duplicates(db) -> bool:
    return any(
        len({ev.item for ev in seq.events}) < len(seq.events) for seq in db.sequences
    )


def test_criterion_4_pruning_soundness(corpus):
    for db in corpus:
        minutil = thr("0.05").times(db.total_utility)
        minconf = thr("0.6")
        runs = {
            name: mine(db, MiningConfig(minutil, minconf, variant=name))
            for name in ("rsc", "rscn", "rscp", "rscr")
        }
        base = canon(runs["rsc"][0])
        for name, (rules, _) in runs.items():
            assert canon(rules) == base, name
        cand = {name: stats.candidates for name, (_, stats) in runs.items()}
        assert cand["rsc"] <= cand["rscn"]
        assert cand["rsc"] <= cand["rscp"]
        assert cand["rsc"] <= cand["rscr"]
        if not has_duplicates(db):
            assert cand["rsc"] == cand["rscr"]
    print("acceptance criterion 4 (pruning soundness and counter ordering): PASS")


def max_descendant_utility(db, ult, srt, prefix):
    """Largest exact pattern utility over all strict extensions of prefix,
    and for each item the largest over the extensions that contain it.

    Checks on the way that each child's rrs covers its own utility, that
    its view bound covers both that and its best descendant's, and that
    each item's share of the path's last row covers every extension
    that contains the item."""
    best = -1
    best_with: dict[int, int] = {}
    for row in scan_extensions(ult, srt):
        util = 0
        for seq in db.sequences:
            u = max_embedding_utility(seq, prefix + (row.item,))
            if u is not None:
                util += u
        assert row.rrs >= util, (prefix, row.item)
        srt.push_row(row)
        deeper, deeper_with = max_descendant_utility(db, ult, srt, prefix + (row.item,))
        srt.pop_row()
        assert view_bound(ult, row) >= max(util, deeper), (prefix, row.item)
        best = max(best, util, deeper)
        deeper_with[row.item] = max(util, deeper)
        for item, u in deeper_with.items():
            best_with[item] = max(best_with.get(item, -1), u)
    last = srt.rows[-1]
    for item, u in best_with.items():
        assert share(ult, last, item) >= u, (prefix, item)
    return best, best_with


def test_criterion_5_bound_properties(corpus):
    for db in corpus:
        for seq in db.sequences:
            duplicate_free = len({ev.item for ev in seq.events}) == len(seq.events)
            for pos in range(1, len(seq.events) + 1):
                ref = PositionRef(seq.sid, pos)
                lo, hi = rru_at(db, ref), ru_at(db, ref)
                assert lo <= hi
                if duplicate_free:
                    assert lo == hi

    # Soundness of rrs, of the view bound and of the shares at every
    # reachable row, exhaustively at desk scale. The table is built at
    # minutil 0, so the successor sets block nothing and the ungated walk
    # reaches every path.
    for db in [build_database(SAMPLE_ROWS)] + corpus[:150]:
        ult = build_ult(db)
        for item in SequenceRecordTable(ult).root:
            srt = SequenceRecordTable(ult)
            row = init_row(srt, item)
            srt.push_row(row)
            best_ext, _ = max_descendant_utility(db, ult, srt, (item,))
            assert view_bound(ult, row) >= max(row.until_utility, best_ext)
            if best_ext >= 0:
                assert row.rrs >= best_ext
    print("acceptance criterion 5 (bound properties): PASS")


def test_criterion_6_threshold_monotonicity(corpus, grid_results):
    for i in range(len(corpus)):
        for conf in MINCONFS:
            for lo, hi in zip(DELTAS, DELTAS[1:]):
                assert grid_results[i, hi, conf] <= grid_results[i, lo, conf]
        for delta in DELTAS:
            for lo, hi in zip(MINCONFS, MINCONFS[1:]):
                assert grid_results[i, delta, hi] <= grid_results[i, delta, lo]
    print("acceptance criterion 6 (threshold monotonicity): PASS")


def test_criterion_7_determinism_and_parallel_equivalence(tmp_path, monkeypatch):
    sample = tmp_path / "sample.usdb"
    sample.write_text(SAMPLE_NATIVE, encoding="utf-8")
    generated = tmp_path / "gen.usdb"
    assert (
        cli.main(
            ["gen", "--sequences", "400", "--alphabet", "25", "--avg-len", "7",
             "--max-len", "28", "--seed", "11", "--out", str(generated)]
        )
        == 0
    )
    for source, delta in ((sample, "0.1"), (generated, "0.02")):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{source.stem}-{tag}.rules"
            code = cli.main(
                ["mine", str(source), "--delta", delta, "--minconf", "0.6", "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        # The pool of worker processes, forced on whatever the table size
        # and CPU count, against a forced single bin.
        monkeypatch.setattr(miner, "PARALLEL_MIN_EVENTS", 0)
        for cpus in (3, 1):
            monkeypatch.setattr(miner, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"{source.stem}-{cpus}-bins.rules"
            code = cli.main(
                ["mine", str(source), "--delta", delta, "--minconf", "0.6", "--out", str(out)]
            )
            assert code == 0
            assert out.read_bytes() == outs[0]
        monkeypatch.undo()
    print("acceptance criterion 7 (determinism across runs and worker counts): PASS")


def test_criterion_8_desk_scale_performance():
    params = GenParams(
        num_sequences=10000,
        alphabet_size=7312,
        avg_length=27.0,
        max_length=213,
        utility_min=1,
        utility_max=10,
        item_skew=1.0,
        seed=1,
    )
    db = generate(params)
    events = sum(len(seq) for seq in db.sequences)
    avg = events / len(db.sequences)
    assert len(db.sequences) == 10000
    assert abs(avg - 27.0) / 27.0 < 0.10

    minutil = thr("0.01").times(db.total_utility)
    start = time.perf_counter()
    rules, stats = mine(db, MiningConfig(minutil, thr("0.6")))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert stats.rules == len(rules)
    print(
        f"acceptance criterion 8 (desk-scale performance, {elapsed:.1f}s,"
        f" {stats.rules} rules, {stats.candidates} candidates): PASS"
    )
