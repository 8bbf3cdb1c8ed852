"""Completeness of the miner's two-item rules at a scale the oracle cannot reach.

A rule with |X| + |Y| = 2 is x ==> y for an ordered pair of distinct
items, so its facts follow straight from each sequence's positions: the
utility sums, over the sequences where some x precedes some y, the best
u(x at i) + u(y at j) with i < j; the support counts those sequences and
the antecedent support the sequences containing x. That takes O(sum L^2),
so it runs on a generated database of 300 sequences, far larger than the
databases the exponential oracle is checked on.

The thresholds are taken from the pairs themselves, so a rule sits
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


def pair_facts(db):
    """(x, y) -> [utility, support] for every pair with some x before some y,
    and item -> number of sequences containing it."""
    facts: dict[tuple[int, int], list[int]] = {}
    containing: dict[int, int] = {}
    for seq in db.sequences:
        # Best utility of each item at a position before the current one.
        before: dict[int, int] = {}
        best: dict[tuple[int, int], int] = {}
        for ev in seq.events:
            y, u = ev.item, ev.utility
            for x, ux in before.items():
                if x != y and ux + u > best.get((x, y), -1):
                    best[(x, y)] = ux + u
            if u > before.get(y, -1):
                before[y] = u
        for x in before:
            containing[x] = containing.get(x, 0) + 1
        for pair, utility in best.items():
            fact = facts.setdefault(pair, [0, 0])
            fact[0] += utility
            fact[1] += 1
    return facts, containing


@pytest.fixture(scope="module")
def database():
    db = generate(GenParams(300, 40, 6.0, 24, seed=7))
    return db, *pair_facts(db)


def thresholds(facts, containing, rank: int, conf_pick: str):
    """minutil: the rank-th highest pair utility. minconf: the lowest, or
    the median, confidence among the pairs that reach that minutil; the
    median is capped so that some pair at exactly minutil still passes."""
    utilities = sorted((fact[0] for fact in facts.values()), reverse=True)
    minutil = utilities[rank]
    confs = sorted(
        Fraction(sup, containing[x]) for (x, _), (util, sup) in facts.items() if util >= minutil
    )
    if conf_pick == "lowest":
        return minutil, confs[0]
    at_minutil = max(
        Fraction(sup, containing[x]) for (x, _), (util, sup) in facts.items() if util == minutil
    )
    return minutil, min(confs[len(confs) // 2], at_minutil)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("conf_pick", ["lowest", "median"])
@pytest.mark.parametrize("rank", [30, 100])
def test_two_item_rules_match_the_direct_computation(database, variant, rank, conf_pick):
    db, facts, containing = database
    minutil, minconf = thresholds(facts, containing, rank, conf_pick)
    expected = {
        ((x,), (y,), util, sup, containing[x])
        for (x, y), (util, sup) in facts.items()
        if util >= minutil and sup * minconf.denominator >= containing[x] * minconf.numerator
    }
    cfg = variant_config(
        variant, Threshold(minutil, 1), Threshold(minconf.numerator, minconf.denominator)
    )
    rules, _stats = mine(db, cfg)
    got = [r.key() for r in rules if len(r.antecedent) + len(r.consequent) == 2]
    assert len(got) == len(set(got))
    assert set(got) == expected
    # The boundary rules are in the set, so the comparisons are exercised.
    assert any(util == minutil for _, _, util, _, _ in expected)
    assert any(Fraction(sup, ant) == minconf for _, _, _, sup, ant in expected)
    assert len(expected) > rank // 2
