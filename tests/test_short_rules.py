"""Completeness of the miner's two- and three-item rules at a scale the
oracle cannot reach.

A rule with |X| + |Y| = n is a cut of a pattern of n distinct items, so
for small n its facts follow straight from each sequence's positions:
the pattern's utility sums, over the sequences that embed it, the best
total utility of an embedding; its support counts those sequences, and
the antecedent support is the support of the cut's prefix. One forward
pass per sequence keeps the best embedding of every pattern of at most n
items seen so far, which takes O(sum L^n) for distinct-item sequences,
so the two-item check runs on a generated database of 300 sequences
over 40 items and the three-item check on 300 sequences over 12 items
(rule-flood's alphabet, with shorter sequences so the ungated rscp
variant stays fast), both far larger than the databases the exponential
oracle is checked on. The two-item check also runs on the benchmark's
search-sparse shape (450 sequences averaging 27 events over 7312 items),
where long projected views give the view bound the most to prune.

The thresholds are taken from the rules themselves, so a rule sits
exactly at minutil, and in the "median" case one sits exactly at
minconf: a comparison that drops the boundary case fails here. The
comparisons below are plain integer arithmetic, independent of the
model's helpers.
"""

from fractions import Fraction

import pytest

from husrm.datagen import GenParams, generate
from husrm.miner import VARIANTS, mine, variant_config
from husrm.model import Threshold


def pattern_facts(db, length: int) -> dict[tuple[int, ...], list[int]]:
    """pattern -> [utility, support] for every pattern of 1 to length distinct items."""
    facts: dict[tuple[int, ...], list[int]] = {}
    for seq in db.sequences:
        # best[p]: best utility of an embedding of p among the positions seen so far.
        best: dict[tuple[int, ...], int] = {}
        for ev in seq.events:
            z, u = ev.item, ev.utility
            grown = {p + (z,): v + u for p, v in best.items() if len(p) < length and z not in p}
            grown[(z,)] = u
            for p, v in grown.items():
                if v > best.get(p, -1):
                    best[p] = v
        for p, utility in best.items():
            fact = facts.setdefault(p, [0, 0])
            fact[0] += utility
            fact[1] += 1
    return facts


def rules_of_length(facts, length: int) -> list[tuple]:
    """Every cut of every pattern of `length` items, as Rule.key() tuples."""
    return [
        (p[:j], p[j:], util, sup, facts[p[:j]][1])
        for p, (util, sup) in facts.items()
        if len(p) == length
        for j in range(1, length)
    ]


@pytest.fixture(scope="module")
def database():
    db = generate(GenParams(300, 40, 6.0, 24, seed=7))
    return db, pattern_facts(db, 2)


@pytest.fixture(scope="module")
def search_sparse_database():
    # The shape of the benchmark's search-sparse workload.
    db = generate(GenParams(450, 7312, 27.0, 213, 1, 10, 1.0, seed=1))
    return db, pattern_facts(db, 2)


@pytest.fixture(scope="module")
def small_alphabet_database():
    db = generate(GenParams(300, 12, 8.0, 24, seed=7))
    return db, pattern_facts(db, 3)


def thresholds(facts, length: int, rank: int, conf_pick: str):
    """minutil: the rank-th highest utility of a pattern of `length` items.
    minconf: the lowest, or the median, confidence among the rules that
    reach that minutil; the median is capped so that some rule at exactly
    minutil still passes."""
    utilities = sorted((util for p, (util, _) in facts.items() if len(p) == length), reverse=True)
    minutil = utilities[rank]
    rules = rules_of_length(facts, length)
    confs = sorted(Fraction(sup, ant) for _, _, util, sup, ant in rules if util >= minutil)
    if conf_pick == "lowest":
        return minutil, confs[0]
    at_minutil = max(Fraction(sup, ant) for _, _, util, sup, ant in rules if util == minutil)
    return minutil, min(confs[len(confs) // 2], at_minutil)


def check_rules_of_length(db, facts, length, variant, rank, conf_pick):
    minutil, minconf = thresholds(facts, length, rank, conf_pick)
    expected = {
        rule
        for rule in rules_of_length(facts, length)
        if rule[2] >= minutil and rule[3] * minconf.denominator >= rule[4] * minconf.numerator
    }
    cfg = variant_config(
        variant, Threshold(minutil, 1), Threshold(minconf.numerator, minconf.denominator)
    )
    rules, _stats = mine(db, cfg)
    got = [r.key() for r in rules if len(r.antecedent) + len(r.consequent) == length]
    assert len(got) == len(set(got))
    assert set(got) == expected
    # The boundary rules are in the set, so the comparisons are exercised.
    assert any(util == minutil for _, _, util, _, _ in expected)
    assert any(Fraction(sup, ant) == minconf for _, _, _, sup, ant in expected)
    assert len(expected) > rank // 2


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("conf_pick", ["lowest", "median"])
@pytest.mark.parametrize("rank", [30, 100])
def test_two_item_rules_match_the_direct_computation(database, variant, rank, conf_pick):
    check_rules_of_length(*database, 2, variant, rank, conf_pick)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("conf_pick", ["lowest", "median"])
@pytest.mark.parametrize("rank", [30, 100])
def test_three_item_rules_match_the_direct_computation(
    small_alphabet_database, variant, rank, conf_pick
):
    check_rules_of_length(*small_alphabet_database, 3, variant, rank, conf_pick)


# rscp is left out: ungated, it does not finish in minutes on this input.
# Both ranks keep minutil (927 and 724) above the best single sequence's
# utility (708): below it, every heavy enough subsequence of that one
# sequence is a rule, and the rule set grows exponentially. At both ranks
# the lowest and the median confidence coincide, so one pick suffices.
@pytest.mark.parametrize("variant", ["rsc", "rscn", "rscr"])
@pytest.mark.parametrize("rank", [30, 50])
def test_two_item_rules_match_the_direct_computation_at_search_sparse_size(
    search_sparse_database, variant, rank
):
    db, facts = search_sparse_database
    minutil, _ = thresholds(facts, 2, rank, "lowest")
    assert minutil > max(sum(ev.utility for ev in seq.events) for seq in db.sequences)
    check_rules_of_length(db, facts, 2, variant, rank, "lowest")
