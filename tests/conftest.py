import gc
import random
from functools import cache

import pytest

from husrm.datagen import GenParams, generate
from husrm.model import Rule, SequenceDatabase, Threshold, build_database
from husrm.srt import SeqOccurrences, SequenceRecordTable, SrtRow, init_row
from husrm.ult import build_ult

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


def prefix_ends(seq, prefix) -> list[tuple[int, int]]:
    """Every end of prefix in seq, as (1-based position, best utility of
    an embedding of prefix ending exactly there), ascending in position.

    The DP is max_embedding_utility's: dp[j] is the best utility of the
    first j prefix items embedded before the current position, so an end
    at a position holding the last item is worth dp[m - 1] plus its
    utility."""
    m = len(prefix)
    dp = [-1] * (m + 1)
    dp[0] = 0
    ends = []
    for pos, (item, utility) in enumerate(zip(seq.items, seq.utils), start=1):
        if item == prefix[-1] and dp[m - 1] >= 0:
            ends.append((pos, dp[m - 1] + utility))
        for j in range(m, 0, -1):
            if prefix[j - 1] == item and dp[j - 1] >= 0 and dp[j - 1] + utility > dp[j]:
                dp[j] = dp[j - 1] + utility
    return ends


def staircase(ends) -> list[tuple[int, int]]:
    """The ends no earlier end matches or beats in utility: the first end
    and each later one whose utility is strictly above every earlier
    one's."""
    kept = []
    for pos, utility in ends:
        if not kept or utility > kept[-1][1]:
            kept.append((pos, utility))
    return kept


def bare_table() -> SequenceRecordTable:
    """A path table over an empty database, for rows built by hand."""
    return SequenceRecordTable(build_ult(build_database([])))


def top_table(ult, item, minutil=Threshold(0, 1)) -> SequenceRecordTable:
    """A path table over ult, with its successor sets at minutil, holding
    item's top-level row."""
    srt = SequenceRecordTable(ult, minutil)
    srt.push_row(init_row(srt, item))
    return srt


def reference_top_row(srt, item) -> SrtRow:
    """The length-1 row of item on the path table srt, by definition: one
    occurrence per sequence holding the item, whose entries are the
    staircase of the item's own utilities at 1-based ends, whose view is
    the positions after the item's first whose item is one of its
    successors in srt, and whose bound is the best entry plus each
    distinct view item's largest utility there; until_utility sums the
    bests, and rrs sums each sequence's largest stored rru at the item."""
    ult, successors = srt.ult, srt.successors[item]
    occurrences = []
    until = rrs = 0
    for sid, items in ult.seq_items.items():
        positions = [k for k, x in enumerate(items) if x == item]
        if not positions:
            continue
        utils = ult.seq_utils[sid]
        entries = staircase([(k + 1, utils[k]) for k in positions])
        view = tuple(
            k for k in range(positions[0] + 1, len(items)) if items[k] in successors
        )
        top: dict[int, int] = {}
        for k in view:
            top[items[k]] = max(top.get(items[k], 0), utils[k])
        best = entries[-1][1]
        occurrences.append(SeqOccurrences(sid, entries, view, best + sum(top.values())))
        until += best
        rrs += max(ult.seq_rrus[sid][k] for k in positions)
    return SrtRow(item, occurrences, until, rrs)


# The benchmark workloads' databases, as perfbench/workloads.py generates
# them at generator seed 1 (a benchmark seed only relabels their items
# and shuffles their sequences), with their delta and minconf.
WORKLOADS = {
    "search-sparse": (GenParams(450, 7312, 27.0, 213, 1, 10, 1.0, seed=1), "0.01", "0.6"),
    "ingest-wide": (GenParams(30000, 1000, 6.0, 40, 1, 10, 1.0, seed=1), "0.02", "0.1"),
    "rule-flood": (GenParams(400, 12, 12.0, 40, 1, 10, 1.0, seed=1), "0.006", "0.1"),
}


@cache
def workload_db(name: str) -> SequenceDatabase:
    return generate(WORKLOADS[name][0])


def occurrence_bound(ult, occ) -> int:
    """An occurrence's view-bound term, from its entries and view: the
    best entry utility plus, for each distinct item at the view's
    positions, its largest utility there."""
    items, utils = ult.seq_items[occ.sid], ult.seq_utils[occ.sid]
    top: dict[int, int] = {}
    for k in occ.view:
        top[items[k]] = max(top.get(items[k], 0), utils[k])
    return max(u for _, u in occ.entries) + sum(top.values())


def view_bound(ult, row) -> int:
    """The scan's view bound of a row: the sum of its occurrences' terms."""
    return sum(occurrence_bound(ult, occ) for occ in row.occurrences)


def share(ult, row, item) -> int:
    """The item's share of a row's view bound: the sum of the terms of
    the row's occurrences whose view holds the item."""
    return sum(
        occurrence_bound(ult, occ)
        for occ in row.occurrences
        if any(ult.seq_items[occ.sid][k] == item for k in occ.view)
    )


def canon(rules) -> set[Rule]:
    return set(rules)


def thr(text: str) -> Threshold:
    return Threshold.from_string(text)
