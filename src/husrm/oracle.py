"""Brute-force reference miner, straight from the definitions.

No bounds, no pruning, no shared machinery with the production miner
beyond the core model types. Distinct-item patterns are enumerated by
projection over earliest frontiers (patterns with repeated items cannot
form rules, so they are skipped), pattern utilities come from an exact
dynamic program over embeddings, and every qualifying cut of every
pattern becomes a rule. This module exists to be obviously correct, not
fast.

The per-position bounds ru and rru and the per-item rru sum are also
defined here, straight from their definitions, as the reference the
miner's one-pass bound computations are checked against.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    InvariantError,
    Rule,
    Sequence,
    SequenceDatabase,
    Threshold,
    check_minconf,
    compare_at_least,
    confidence_at_least,
)


class MaxLenCapWarning(UserWarning):
    """Pattern enumeration stopped at the length cap; results may be truncated."""


@dataclass(frozen=True, slots=True)
class OracleConfig:
    minutil: Threshold
    minconf: Threshold
    max_len: int = 8

    def __post_init__(self) -> None:
        check_minconf(self.minconf)
        if self.max_len < 2:
            raise ValueError("max_len must be at least 2")


def max_embedding_utility(seq: Sequence, pattern: tuple[int, ...]) -> int | None:
    """Best total utility over all embeddings of pattern into seq, or None.

    dp[j] holds the best utility of embedding the first j pattern items
    so far; scanning positions forward and pattern slots backward keeps
    embeddings strictly increasing. Exact because an occurrence's utility
    decomposes position by position.
    """
    m = len(pattern)
    if m == 0:
        raise ValueError("empty pattern")
    dp = [-1] * (m + 1)
    dp[0] = 0
    for ev in seq.events:
        item = ev.item
        utility = ev.utility
        for j in range(m, 0, -1):
            if pattern[j - 1] == item and dp[j - 1] >= 0:
                cand = dp[j - 1] + utility
                if cand > dp[j]:
                    dp[j] = cand
    return dp[m] if dp[m] >= 0 else None


def support_of(db: SequenceDatabase, pattern: tuple[int, ...]) -> int:
    """Number of sequences containing the pattern as a subsequence."""
    if not pattern:
        raise ValueError("empty pattern")
    count = 0
    n = len(pattern)
    for seq in db.sequences:
        k = 0
        for ev in seq.events:
            if ev.item == pattern[k]:
                k += 1
                if k == n:
                    break
        if k == n:
            count += 1
    return count


class PositionRef(NamedTuple):
    """A 1-based position inside one sequence."""

    sid: int
    pos: int


def ru_at(db: SequenceDatabase, ref: PositionRef) -> int:
    """Raw remaining utility: suffix utility sum from the position inclusive."""
    events = db.sequence_by_sid(ref.sid).events
    return sum(ev.utility for ev in events[ref.pos - 1 :])


def rru_at(db: SequenceDatabase, ref: PositionRef) -> int:
    """Reduced remaining utility of one position, straight from its definition.

    Own utility, plus one term per distinct later item at its maximum
    utility among occurrences after the position. Later occurrences of
    the position's own item contribute nothing.
    """
    events = db.sequence_by_sid(ref.sid).events
    own = events[ref.pos - 1]
    maxima: dict[int, int] = {}
    for ev in events[ref.pos :]:
        if ev.item == own.item:
            continue
        if ev.utility > maxima.get(ev.item, -1):
            maxima[ev.item] = ev.utility
    return own.utility + sum(maxima.values())


def rru_sum_per_item(db: SequenceDatabase) -> dict[int, int]:
    """Per item: sum over containing sequences of the sequence's maximum rru.

    The per-sequence maximum over the item's occurrences mirrors the
    max-occurrence utility semantics of patterns.
    """
    totals: dict[int, int] = {}
    for seq in db.sequences:
        best: dict[int, int] = {}
        for pos, ev in enumerate(seq.events, 1):
            value = rru_at(db, PositionRef(seq.sid, pos))
            if value > best.get(ev.item, -1):
                best[ev.item] = value
        for item, value in best.items():
            totals[item] = totals.get(item, 0) + value
    return totals


def oracle_mine(db: SequenceDatabase, cfg: OracleConfig) -> list[Rule]:
    """Every rule meeting both thresholds, definitionally, canonically sorted.

    Warns with MaxLenCapWarning when some pattern at the length cap still
    had extensions, so truncated runs are visible rather than silent.
    """
    seqs = db.sequences
    rules: list[Rule] = []
    truncated = False

    def visit(
        pattern: tuple[int, ...],
        pattern_set: frozenset[int],
        proj: list[tuple[int, int]],
        sup_chain: tuple[int, ...],
    ) -> None:
        nonlocal truncated
        n = len(pattern)
        if n >= 2:
            util = 0
            for si, _ in proj:
                u = max_embedding_utility(seqs[si], pattern)
                if u is None:
                    raise InvariantError("projected sequence does not embed its pattern")
                util += u
            if compare_at_least(util, cfg.minutil):
                sup_r = len(proj)
                for j in range(1, n):
                    if confidence_at_least(sup_r, sup_chain[j - 1], cfg.minconf):
                        rules.append(
                            Rule(pattern[:j], pattern[j:], util, sup_r, sup_chain[j - 1])
                        )
        extensions: dict[int, list[tuple[int, int]]] = {}
        for si, start in proj:
            events = seqs[si].events
            seen: set[int] = set()
            for k in range(start, len(events)):
                item = events[k].item
                if item in pattern_set or item in seen:
                    continue
                seen.add(item)
                extensions.setdefault(item, []).append((si, k + 1))
        if not extensions:
            return
        if n >= cfg.max_len:
            truncated = True
            return
        for item, nproj in extensions.items():
            visit(
                pattern + (item,),
                pattern_set | {item},
                nproj,
                sup_chain + (len(nproj),),
            )

    for item in db.distinct_items():
        proj: list[tuple[int, int]] = []
        for si, seq in enumerate(seqs):
            for k, ev in enumerate(seq.events):
                if ev.item == item:
                    proj.append((si, k + 1))
                    break
        visit((item,), frozenset((item,)), proj, (len(proj),))

    if truncated:
        warnings.warn(
            "pattern enumeration hit the length cap; the rule set may be truncated",
            MaxLenCapWarning,
            stacklevel=2,
        )
    rules.sort(key=lambda r: (r.antecedent, r.consequent))
    return rules
