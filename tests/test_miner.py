from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

import husrm.miner as miner
from husrm.datagen import GenParams, generate
from husrm.miner import (
    MiningConfig,
    find_cut_start,
    mine,
    rule_produce,
)
from husrm.model import Rule, Threshold, build_database, confidence_at_least
from husrm.oracle import OracleConfig, oracle_mine
from husrm.srt import SeqOccurrences, SrtRow

from conftest import (
    WORKLOADS,
    bare_table,
    canon,
    deep_path_rows,
    make_random_db,
    thr,
    top_table,
    workload_db,
)


def mine_sample(sample_db, minconf="0.6", **cfg_kwargs):
    minutil = thr("0.1").times(sample_db.total_utility)
    cfg = MiningConfig(minutil, thr(minconf), **cfg_kwargs)
    return mine(sample_db, cfg)


def test_sample_rule_set(sample_db):
    rules, stats = mine_sample(sample_db)
    items = sample_db.items
    a, c, b, e = (items.id_of(t) for t in "acbe")
    assert rules == [
        Rule((a,), (c,), 13, 3, 4),
        Rule((c, e), (b,), 16, 1, 1),
        Rule((b,), (c,), 16, 2, 3),
        Rule((e,), (b,), 14, 1, 1),
    ]
    assert stats.rules == 4
    assert stats.candidates == 15
    assert stats.rrs_prunes == 1
    assert stats.view_prunes == 0
    assert stats.iip_prunes == 0
    assert stats.sequences == 5
    assert stats.distinct_items == 6
    assert stats.items_after_pruning == 5


@pytest.mark.parametrize(
    "db, delta, minconf",
    [("sample", "0.1", "0.6"), (GenParams(2000, 200, 6.0, 40, seed=1), "0.02", "0.1")],
    ids=["sample", "gen"],
)
def test_only_items_with_successors_get_a_row(db, delta, minconf, sample_db, monkeypatch):
    db = sample_db if db == "sample" else generate(db)
    cfg = MiningConfig(thr(delta).times(db.total_utility), thr(minconf))
    ult = miner.build_ult(miner.prune_unpromising(db, cfg.minutil))
    srt = miner.SequenceRecordTable(ult, cfg.minutil)
    holders = srt.root
    grown = [item for item in holders if srt.successors[item]]
    assert 0 < len(grown) < len(holders)
    calls = []
    init_row = miner.init_row

    def counting_init_row(srt, item):
        calls.append(item)
        return init_row(srt, item)

    monkeypatch.setattr(miner, "init_row", counting_init_row)
    monkeypatch.setattr(miner, "_usable_cpus", lambda: 1)
    mine(db, cfg)
    assert calls == grown


def test_zero_rules_above_total_utility(sample_db):
    rules, _ = mine(
        sample_db, MiningConfig(Threshold(6401, 100), thr("0.6"))
    )
    assert rules == []


def test_minutil_zero_is_safe(sample_db):
    rules, _ = mine(sample_db, MiningConfig(Threshold(0, 1), thr("1.0")))
    for rule in rules:
        assert rule.support == rule.antecedent_support


def test_minconf_validation(sample_db):
    with pytest.raises(ValueError):
        MiningConfig(Threshold(1, 1), Threshold(0, 10))
    with pytest.raises(ValueError):
        MiningConfig(Threshold(1, 1), Threshold(11, 10))
    MiningConfig(Threshold(1, 1), Threshold(10, 10))  # confidence 1 is valid


def test_find_cut_start_examples():
    assert find_cut_start([4, 3, 3, 2], 2, Threshold(6, 10)) == 2
    # confidence 1 forces equal supports
    assert find_cut_start([5, 3, 3], 3, Threshold(1, 1)) == 2
    # all supports equal: every cut qualifies
    assert find_cut_start([2, 2, 2], 2, Threshold(6, 10)) == 1


@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
)
def test_find_cut_start_matches_linear_scan(raw, num, den):
    supports = sorted(raw, reverse=True)
    sup_n = supports[-1]
    if num > den:
        num = den
    minconf = Threshold(num, den)
    got = find_cut_start(supports, sup_n, minconf)
    linear = next(
        k
        for k in range(1, len(supports) + 1)
        if confidence_at_least(sup_n, supports[k - 1], minconf)
    )
    assert got == linear


def fake_table(items, supports, until, rrs=None):
    srt = bare_table()
    for i, (item, sup) in enumerate(zip(items, supports)):
        occurrences = [SeqOccurrences(sid, [(i + 1, 0)], (), 0) for sid in range(1, sup + 1)]
        row = SrtRow(item, occurrences, until, rrs or until)
        srt.push_row(row)
    return srt


def test_rule_produce_emits_all_cuts_from_the_found_start():
    # supports 5,4,3,2 at minconf 0.6: only the last cut qualifies
    srt = fake_table([0, 1, 2, 3], [5, 4, 3, 2], until=100)
    got = []
    n = rule_produce(srt, MiningConfig(Threshold(1, 1), Threshold(6, 10)), got.append)
    assert n == 1
    assert got == [((0, 1, 2), (3,), 100, 2, 3)]


def test_rule_produce_shares_prefixes_and_interns_consequents():
    cfg = MiningConfig(Threshold(1, 1), Threshold(1, 2))
    srt = fake_table([0, 1, 2, 3], [4, 4, 4, 4], until=100)
    got = []
    assert rule_produce(srt, cfg, got.append) == 3
    assert [(ant, cons) for ant, cons, *_ in got] == [
        ((0,), (1, 2, 3)), ((0, 1), (2, 3)), ((0, 1, 2), (3,)),
    ]
    assert all(fields[0] is srt.prefixes[j] for j, fields in enumerate(got))
    srt.pop_row()
    srt.pop_row()
    srt.push_row(SrtRow(3, [SeqOccurrences(sid, [(3, 0)], (), 0) for sid in range(1, 5)], 100, 100))
    again = []
    assert rule_produce(srt, cfg, again.append) == 2
    assert again[0][0] is got[0][0] and again[1][1] is got[2][1]
    assert srt.consequents == {cons: cons for cons in [(1, 2, 3), (2, 3), (3,), (1, 3)]}


def test_rule_produce_rejects_low_utility_or_confidence():
    cfg = MiningConfig(Threshold(101, 1), Threshold(6, 10))
    srt = fake_table([0, 1], [4, 3], until=100)
    got = []
    assert rule_produce(srt, cfg, got.append) == 0
    cfg = MiningConfig(Threshold(1, 1), Threshold(9, 10))
    assert rule_produce(srt, cfg, got.append) == 0
    assert got == []


def test_rule_produce_single_row_emits_nothing():
    srt = fake_table([0], [3], until=50)
    got = []
    assert rule_produce(srt, MiningConfig(Threshold(0, 1), Threshold(1, 2)), got.append) == 0


def test_rule_produce_small_scope_examples(small_db):
    # path a, c emits a ==> c; extending by f kills the confidence gate
    from husrm.srt import scan_extensions
    from husrm.ult import build_ult

    ult = build_ult(small_db)
    items = small_db.items
    cfg = MiningConfig(Threshold(64, 10), Threshold(6, 10))
    srt = top_table(ult, items.id_of("a"))
    row_c = next(r for r in scan_extensions(ult, srt) if r.item == items.id_of("c"))
    srt.push_row(row_c)
    got = []
    assert rule_produce(srt, cfg, got.append) == 1
    assert got == [((items.id_of("a"),), (items.id_of("c"),), 8, 2, 2)]
    row_f = next(r for r in scan_extensions(ult, srt) if r.item == items.id_of("f"))
    srt.push_row(row_f)
    assert rule_produce(srt, cfg, got.append) == 0


def test_disabling_gate_keeps_rules_and_grows_candidates(sample_db):
    rules, stats = mine_sample(sample_db)
    rules_ungated, stats_ungated = mine_sample(sample_db, variant="rscp")
    assert canon(rules) == canon(rules_ungated)
    assert stats.candidates <= stats_ungated.candidates
    assert stats_ungated.rrs_prunes == stats_ungated.view_prunes == stats_ungated.iip_prunes == 0


def test_config_has_no_dedup_or_seu_form_field(sample_db):
    assert [f.name for f in fields(MiningConfig)] == ["minutil", "minconf", "variant", "threads"]
    minutil, minconf = Threshold(1, 1), Threshold(6, 10)
    for removed in ("seu_distinct_max", "dedup"):
        with pytest.raises(TypeError):
            MiningConfig(minutil, minconf, **{removed: True})
    cfg = MiningConfig(minutil, minconf)
    assert cfg.seu_distinct_max is True
    with pytest.raises(AttributeError):
        cfg.seu_distinct_max = False
    prune = miner.prune_unpromising
    assert prune(sample_db, minutil, distinct_max=True) == prune(sample_db, minutil)
    with pytest.raises(ValueError, match="distinct_max must be True"):
        prune(sample_db, minutil, distinct_max=False)


def test_variant_configs():
    minutil, minconf = Threshold(1, 1), Threshold(6, 10)
    assert MiningConfig(minutil, minconf, variant="rscn").use_seu_prune is False
    assert MiningConfig(minutil, minconf, variant="rscp").use_rrs_prune is False
    assert MiningConfig(minutil, minconf, variant="rscr").use_rru is False
    assert MiningConfig(minutil, minconf, variant="rsc").use_rru is True
    with pytest.raises(ValueError, match="unknown variant 'bogus'; choose from"):
        MiningConfig(minutil, minconf, variant="bogus")


def test_threads_other_than_one_is_rejected():
    for threads in (0, 2, 4):
        with pytest.raises(ValueError):
            MiningConfig(Threshold(1, 1), Threshold(6, 10), threads=threads)


def test_deep_path_does_not_hit_the_recursion_limit():
    db = build_database(deep_path_rows(1100))
    assert db.total_utility == 2200
    rules, stats = mine(db, MiningConfig(Threshold(2200, 1), thr("0.6")))
    assert len(rules) == stats.rules == 1099
    full = tuple(range(1100))
    assert [r.antecedent + r.consequent for r in rules] == [full] * 1099
    assert [len(r.antecedent) for r in rules] == list(range(1, 1100))


def test_empty_database():
    db = build_database([])
    rules, stats = mine(db, MiningConfig(Threshold(0, 1), Threshold(6, 10)))
    assert rules == []
    assert stats.candidates == stats.rules == stats.rrs_prunes == 0


@pytest.mark.parametrize("seed", range(30))
def test_matches_reference_on_random_databases(seed):
    db = make_random_db(seed)
    minutil = thr("0.05").times(db.total_utility)
    minconf = thr("0.6")
    rules, _ = mine(db, MiningConfig(minutil, minconf))
    expected, _ = oracle_mine(db, OracleConfig(minutil, minconf, 8))
    assert canon(rules) == canon(expected)


@pytest.mark.parametrize("seed", range(30))
def test_no_rule_is_emitted_twice(seed):
    db = make_random_db(seed)
    rules, _ = mine(db, MiningConfig(Threshold(0, 1), thr("0.4")))
    pairs = [(r.antecedent, r.consequent) for r in rules]
    assert len(pairs) == len(set(pairs))


def test_stats_counters_are_deterministic(sample_db):
    runs = [mine_sample(sample_db)[1] for _ in range(3)]
    snap = lambda s: (s.candidates, s.rrs_prunes, s.rules)
    assert len({snap(s) for s in runs}) == 1


@pytest.mark.parametrize("name, count", [("ingest-wide", 9), ("rule-flood", 82556)])
def test_gates_drop_no_rule_at_workload_size(name, count):
    # rscp runs every extension gate (rrs, the share, the view bound and
    # its early stop) at minutil 0, where none drops a row, so the gates
    # must cost no rule on the benchmark's own databases either. Both
    # variants share the scan, the successor sets and the top-level rows
    # built from the root, which this does not check.
    _, delta, minconf = WORKLOADS[name]
    db = workload_db(name)
    minutil = thr(delta).times(db.total_utility)
    gated, stats = mine(db, MiningConfig(minutil, thr(minconf)))
    ungated, ungated_stats = mine(db, MiningConfig(minutil, thr(minconf), variant="rscp"))
    assert len(gated) == len(ungated) == count
    assert set(gated) == set(ungated)
    assert ungated_stats.candidates > stats.candidates
