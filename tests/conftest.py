import gc
import random

import pytest

from husrm.model import Rule, SequenceDatabase, Threshold, build_database

# Hand-authored demo database used across the suite. Expected values for
# it (rule sets, bounds, projection rows) were derived by hand and by the
# brute-force reference and are frozen in the tests.
SAMPLE_ROWS = [
    [("a", 1), ("c", 2), ("c", 3)],
    [("b", 5), ("c", 2), ("e", 8), ("b", 6)],
    [("a", 2), ("c", 2), ("f", 10)],
    [("a", 2), ("a", 1), ("a", 2), ("b", 6), ("c", 3), ("a", 3)],
    [("d", 1), ("a", 1), ("b", 4)],
]

SAMPLE_NATIVE = """\
# demo utility sequence database
a:1 c:2 c:3
b:5 c:2 e:8 b:6
a:2 c:2 f:10
a:2 a:1 a:2 b:6 c:3 a:3
d:1 a:1 b:4
"""


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that leaves cyclic garbage collection switched off.

    Parsing and mining pause the collector; a path that forgot to switch
    it back on would otherwise go unnoticed. It is switched back on here
    either way, so one failure does not spread to later tests.
    """
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the test left cyclic garbage collection disabled"


@pytest.fixture
def sample_db() -> SequenceDatabase:
    return build_database(SAMPLE_ROWS)


@pytest.fixture
def small_db() -> SequenceDatabase:
    # First three rows only: small enough to check projection tables by hand.
    return build_database(SAMPLE_ROWS[:3])


def deep_path_rows(length: int = 1100) -> list[list[tuple[str, int]]]:
    """Two identical sequences of distinct unit-utility items.

    At minutil = total utility the only rules are the cuts of the full
    path, so the search grows one path length items deep.
    """
    row = [(f"i{k}", 1) for k in range(length)]
    return [row, list(row)]


def make_random_db(seed: int) -> SequenceDatabase:
    """Seeded desk-scale database: <= 8 sequences of <= 8 events over <= 6 items."""
    rng = random.Random(seed)
    alphabet = "abcdef"[: rng.randint(1, 6)]
    rows = []
    for _ in range(rng.randint(1, 8)):
        rows.append(
            [(rng.choice(alphabet), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))]
        )
    return build_database(rows)


def view_bound(ult, row) -> int:
    """The scan's view bound of a row, from its entries and views: per
    sequence, the best entry utility plus the utilities at the view's
    positions."""
    return sum(
        max(u for _, u in occ.entries) + sum(ult.seq_utils[occ.sid][k] for k in occ.view)
        for occ in row.occurrences
    )


def canon(rules) -> set[Rule]:
    return set(rules)


def thr(text: str) -> Threshold:
    return Threshold.from_string(text)
