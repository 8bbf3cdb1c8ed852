"""Miner against the brute-force oracle beyond the 8x8x6 random corpus.

Two shapes the small corpus rarely reaches: duplicate-heavy databases
(alphabet 2-3, items repeating inside every sequence) and long ones
(20-30 events). Every ablation variant, with and without duplicate
removal, must give exactly the oracle's rule set. The oracle's length
cap is the alphabet size, which no rule can exceed, and a truncated
enumeration fails the test.
"""

import random

import pytest

from husrm.dataio import dedup_max_utility
from husrm.miner import VARIANTS, MiningConfig, mine
from husrm.model import build_database
from husrm.oracle import OracleConfig, oracle_mine

from conftest import canon, thr


def random_db(seed: int, alphabet: int, sequences: int, lengths: tuple[int, int]):
    rng = random.Random(seed)
    labels = "abcdef"[:alphabet]
    rows = [
        [(rng.choice(labels), rng.randint(1, 9)) for _ in range(rng.randint(*lengths))]
        for _ in range(sequences)
    ]
    return build_database(rows)


def duplicate_heavy_db(seed: int):
    rng = random.Random(seed)
    return random_db(seed, rng.randint(2, 3), rng.randint(2, 8), (4, 12))


def long_db(seed: int):
    rng = random.Random(1000 + seed)
    return random_db(1000 + seed, rng.randint(3, 6), rng.randint(2, 6), (20, 30))


def oracle_rules(db, minutil, minconf, alphabet: int):
    rules, truncated = oracle_mine(db, OracleConfig(minutil, minconf, max(2, alphabet)))
    assert not truncated
    return canon(rules)


def check_against_oracle(db, delta: str, minconf: str) -> None:
    minutil = thr(delta).times(db.total_utility)
    conf = thr(minconf)
    alphabet = len(db.distinct_items())
    for dedup, work in ((False, db), (True, dedup_max_utility(db))):
        expected = oracle_rules(work, minutil, conf, alphabet)
        for name in VARIANTS:
            rules, _ = mine(work, MiningConfig(minutil, conf, variant=name))
            assert canon(rules) == expected, (name, dedup)


@pytest.mark.parametrize("seed", range(60))
def test_duplicate_heavy_databases_match_the_oracle(seed):
    db = duplicate_heavy_db(seed)
    assert any(len({ev.item for ev in s.events}) < len(s.events) for s in db.sequences)
    for delta, minconf in (("0.02", "0.3"), ("0.1", "0.6")):
        check_against_oracle(db, delta, minconf)


@pytest.mark.parametrize("seed", range(25))
def test_long_databases_match_the_oracle(seed):
    db = long_db(seed)
    assert max(len(s) for s in db.sequences) >= 20
    for delta, minconf in (("0.02", "0.3"), ("0.1", "0.6")):
        check_against_oracle(db, delta, minconf)
