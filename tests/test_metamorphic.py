"""Metamorphic relations: transformations of the input whose effect on the
output is known without knowing the output, so they check the miner at
a scale the brute-force oracle cannot reach.

- Scaling every utility and minutil by c multiplies each rule's utility
  by c and changes no other rule field and no stats counter.
- Relabeling the items and shuffling the sequences keeps the rule set,
  read through the relabeling, and every stats counter.
- Appending a sequence of fresh items whose total utility is below
  minutil changes no rule, at the same absolute minutil.
- The four benchmark variants return the same rule set, each after a
  different search.

The database is generated (300 sequences over 100 items, so the early
item prune has items to drop). minutil sits just above the best single
sequence's utility, so no rule rests on one sequence, and it is not an
integer, so the scaling relation also scales a denominator.

The scaling and the relabeling relations also run on the search-sparse
shape (450 sequences over 7312 items, avg 27, max 213), at the same
minutil rule, in rsc only: rscp grows every child there and does not
finish in tier-1 time.
"""

import random
from dataclasses import asdict, replace

import pytest

from husrm.datagen import GenParams, generate
from husrm.miner import VARIANTS, MiningConfig, mine
from husrm.model import Threshold, build_database

MINCONF = Threshold(1, 10)

SHAPES = {
    "dense": GenParams(300, 100, 6.0, 20, seed=11),
    "search-sparse": GenParams(450, 7312, 27.0, 213, 1, 10, 1.0, seed=1),
}
# Every variant on the dense shape (ids are the variant names), rsc on
# the search-sparse one.
SHAPED_VARIANTS = [pytest.param("dense", name, id=name) for name in sorted(VARIANTS)] + [
    pytest.param("search-sparse", "rsc", id="search-sparse-rsc")
]


@pytest.fixture(scope="module")
def base(request):
    db = generate(SHAPES[getattr(request, "param", "dense")])
    best = max(sum(ev.utility for ev in seq.events) for seq in db.sequences)
    return db, Threshold(100 * best + 37, 100)


def rows_of(db) -> list[list[tuple[str, int]]]:
    token_of = db.items.token_of
    return [[(token_of(ev.item), ev.utility) for ev in seq.events] for seq in db.sequences]


def labeled(rules, db) -> list[tuple]:
    token_of = db.items.token_of
    return [
        (
            tuple(map(token_of, r.antecedent)),
            tuple(map(token_of, r.consequent)),
            r.utility,
            r.support,
            r.antecedent_support,
        )
        for r in rules
    ]


def counters(stats) -> dict:
    fields = asdict(stats)
    del fields["runtime_ms"]
    return fields


@pytest.mark.parametrize("base, variant", SHAPED_VARIANTS, indirect=["base"])
def test_scaling_utilities_and_minutil_scales_rule_utilities(base, variant):
    db, minutil = base
    c = 3
    scaled_db = build_database([[(t, c * u) for t, u in row] for row in rows_of(db)])
    scaled_minutil = Threshold(c * minutil.numerator, minutil.denominator)
    rules, stats = mine(db, MiningConfig(minutil, MINCONF, variant=variant))
    scaled_rules, scaled_stats = mine(scaled_db, MiningConfig(scaled_minutil, MINCONF, variant=variant))
    assert rules
    assert scaled_rules == [replace(r, utility=c * r.utility) for r in rules]
    assert counters(scaled_stats) == {**counters(stats), "minutil": asdict(scaled_minutil)}


@pytest.mark.parametrize("base, variant", SHAPED_VARIANTS, indirect=["base"])
def test_relabeling_and_shuffling_keeps_rules_and_counters(base, variant):
    db, minutil = base
    rng = random.Random(5)
    tokens = list(db.items.tokens())
    renamed = tokens[:]
    rng.shuffle(renamed)
    new_name = dict(zip(tokens, renamed))
    rows = [[(new_name[t], u) for t, u in row] for row in rows_of(db)]
    rng.shuffle(rows)
    moved_db = build_database(rows)
    rules, stats = mine(db, MiningConfig(minutil, MINCONF, variant=variant))
    moved_rules, moved_stats = mine(moved_db, MiningConfig(minutil, MINCONF, variant=variant))
    old_name = {new: old for old, new in new_name.items()}
    read_back = [
        (tuple(old_name[t] for t in x), tuple(old_name[t] for t in y), *facts)
        for x, y, *facts in labeled(moved_rules, moved_db)
    ]
    assert rules
    assert len(read_back) == len(set(read_back))
    assert set(read_back) == set(labeled(rules, db))
    assert counters(moved_stats) == counters(stats)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_appending_a_low_utility_sequence_of_fresh_items_changes_no_rule(base, variant):
    db, minutil = base
    fresh = [(f"fresh{k}", 1) for k in range(8)]
    assert sum(u for _, u in fresh) * minutil.denominator < minutil.numerator
    grown_db = build_database(rows_of(db) + [fresh])
    rules, _ = mine(db, MiningConfig(minutil, MINCONF, variant=variant))
    grown_rules, _ = mine(grown_db, MiningConfig(minutil, MINCONF, variant=variant))
    assert rules
    assert grown_rules == rules


def test_every_variant_mines_the_same_rules(base):
    db, minutil = base
    results = {name: mine(db, MiningConfig(minutil, MINCONF, variant=name)) for name in sorted(VARIANTS)}
    expected = set(results["rsc"][0])
    assert expected
    for name, (got, _) in results.items():
        assert len(got) == len(set(got)), name
        assert set(got) == expected, name
    # The ablations really change the search on this input. rscn and rscr
    # can grow as many candidates, so their gate counters tell them apart.
    searches = {
        name: (stats.candidates, stats.rrs_prunes, stats.view_prunes)
        for name, (_, stats) in results.items()
    }
    assert len(set(searches.values())) == len(VARIANTS), searches
