"""Brute-force reference miner, straight from the definitions.

No bounds, no pruning, no shared machinery with the production miner
beyond the core model types. Distinct-item patterns are enumerated by
projection over earliest frontiers (patterns with repeated items cannot
form rules, so they are skipped), pattern utilities come from an exact
dynamic program over embeddings, and every qualifying cut of every
pattern becomes a rule. This module exists to be obviously correct, not
fast.
"""

from dataclasses import dataclass

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
    for item, utility in zip(seq.items, seq.utils):
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
        for item in seq.items:
            if item == pattern[k]:
                k += 1
                if k == n:
                    break
        if k == n:
            count += 1
    return count


def oracle_mine(db: SequenceDatabase, cfg: OracleConfig) -> tuple[list[Rule], bool]:
    """Every rule meeting both thresholds, definitionally, canonically sorted,
    and whether the enumeration was truncated: some pattern at the length
    cap still had extensions, so longer rules may be missing.

    The enumeration recurses once per pattern item and visits every
    distinct-item subpattern, so it is exponential in the longest pattern
    and meant for small inputs.
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
            items = seqs[si].items
            seen: set[int] = set()
            for k in range(start, len(items)):
                item = items[k]
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
            if item in seq.items:
                proj.append((si, seq.items.index(item) + 1))
        visit((item,), frozenset((item,)), proj, (len(proj),))

    rules.sort()
    return rules, truncated
