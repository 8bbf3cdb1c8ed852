"""Core domain types shared by every stage of the mining pipeline.

A sequence database is an ordered list of sequences; each sequence is an
ordered, non-empty run of (item, utility) events, stored once as two
parallel tuples, items and utils, which every stage reads directly;
Sequence.events builds the Event pairs afresh on each read.
Items are interned to dense integer ids in first-appearance order, so
repeated loads of the same input always assign the same ids. Thresholds
are exact non-negative rationals and every threshold decision is made by
integer cross-multiplication; floats never enter a mining decision.
"""

import gc
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

U64_MAX = 2**64 - 1


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug in the program, never bad input.

    Raised by explicit checks rather than assert, so the checks also run
    under python -O.
    """


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection for a block or a decorated call.

    Parsing and mining build millions of containers (sequence columns,
    position lists, occurrence rows) and none of them form a reference
    cycle, so reference counting alone frees all of them; every full
    collection would only re-traverse them. The collector is re-enabled
    on exit, also by an exception, but only if it was enabled on
    entry, so a caller that turned it off keeps it off and nested pauses
    compose.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class ItemTable:
    """Interning table mapping item tokens to dense ids and back.

    Interning is a bijection: distinct tokens get distinct ids, ids are
    assigned in first-appearance order, and token -> id -> token is the
    identity.
    """

    __slots__ = ("_tokens", "_by_token")

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._tokens: list[str] = []
        self._by_token: dict[str, int] = {}
        for token in tokens:
            self.intern(token)

    def intern(self, token: str) -> int:
        iid = self._by_token.get(token)
        if iid is None:
            if not token:
                raise ValueError("empty item label")
            iid = len(self._tokens)
            self._by_token[token] = iid
            self._tokens.append(token)
        return iid

    def id_of(self, token: str) -> int:
        return self._by_token[token]

    def token_of(self, item: int) -> str:
        return self._tokens[item]

    def tokens(self) -> tuple[str, ...]:
        return tuple(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ItemTable) and self._tokens == other._tokens

    def __repr__(self) -> str:
        return f"ItemTable({len(self._tokens)} items)"


class Event(NamedTuple):
    """One item occurrence with its non-negative utility."""

    item: int
    utility: int


@dataclass(slots=True)
class Sequence:
    """One database row: an ordered, non-empty run of events. sid is 1-based.

    The events are two parallel columns of equal length: items[k] and
    utils[k] are the item id and the utility of the k-th event. Treat a
    sequence as immutable: transformation passes hand an unchanged
    sequence on as the same object, and the utility table stores its
    columns without copying them.
    """

    sid: int
    items: tuple[int, ...]
    utils: tuple[int, ...]

    @property
    def events(self) -> tuple[Event, ...]:
        # A list first, so the tuple is made at its size: tuple(map(...))
        # grows by resizing, which leaves heap holes when the events of
        # many long sequences are read.
        return tuple([*map(Event, self.items, self.utils)])

    def __len__(self) -> int:
        return len(self.items)


class SequenceDatabase:
    """Immutable ordered collection of sequences plus the item interner.

    total_utility is the sum of every event utility. sids are contiguous
    1..n at load time; transformation passes (duplicate removal, item
    pruning) keep the surviving sequences' original sids. A sequence
    whose columns are empty or of different lengths, or a repeated sid,
    is rejected.
    """

    __slots__ = ("sequences", "total_utility", "items")

    def __init__(self, sequences: Iterable[Sequence], items: ItemTable) -> None:
        self.sequences: tuple[Sequence, ...] = tuple(sequences)
        self.items = items
        total = 0
        sids: set[int] = set()
        for seq in self.sequences:
            n = len(seq.items)
            if not n:
                raise ValueError(f"sequence {seq.sid} is empty")
            if n != len(seq.utils):
                raise ValueError(
                    f"sequence {seq.sid} has {n} items but {len(seq.utils)} utilities"
                )
            total += sum(seq.utils)
            sids.add(seq.sid)
        if len(sids) != len(self.sequences):
            raise ValueError("duplicate sids")
        self.total_utility = total

    def distinct_items(self) -> list[int]:
        """Item ids actually present, in first-appearance order."""
        return list(dict.fromkeys(chain.from_iterable(seq.items for seq in self.sequences)))

    def __len__(self) -> int:
        return len(self.sequences)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SequenceDatabase)
            and self.sequences == other.sequences
            and self.items == other.items
        )

    def __repr__(self) -> str:
        return (
            f"SequenceDatabase({len(self.sequences)} sequences,"
            f" total_utility={self.total_utility})"
        )


def build_database(rows: Iterable[Iterable[tuple[str, int]]]) -> SequenceDatabase:
    """Build a database from rows of (token, utility) pairs, with a fresh
    item table that interns tokens in first-appearance order.

    Empty rows are skipped, mirroring how parsers skip blank lines.
    Tokens must be non-empty and free of whitespace so the native writer
    can round-trip them. Utilities must be ints (bool, float and str are
    refused, not coerced) within 0..2**64-1, as the parsers require.
    """
    table = ItemTable()
    intern = table.intern
    seqs: list[Sequence] = []
    for row in rows:
        ids: list[int] = []
        utils: list[int] = []
        for token, utility in row:
            if not token or token.split() != [token]:
                raise ValueError(f"bad item label: {token!r}")
            if type(utility) is not int:
                raise ValueError(f"utility is not an int: {utility!r}")
            if utility < 0 or utility > U64_MAX:
                raise ValueError(f"utility out of range: {utility}")
            ids.append(intern(token))
            utils.append(utility)
        if ids:
            seqs.append(Sequence(len(seqs) + 1, tuple(ids), tuple(utils)))
    return SequenceDatabase(seqs, table)


# ASCII digits only: \d would also take other scripts' digits, such as "٣" or "１".
_DECIMAL = re.compile(r"^([0-9]+)?(?:\.([0-9]*))?$")


@dataclass(frozen=True, slots=True)
class Threshold:
    """Exact non-negative rational used for minutil / minconf decisions.

    Parsed from a decimal literal the denominator is a power of ten; the
    fraction is never reduced and never rounded.
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.numerator < 0:
            raise ValueError("negative threshold")
        if self.denominator <= 0:
            raise ValueError("threshold denominator must be positive")

    @classmethod
    def from_string(cls, text: str) -> "Threshold":
        m = _DECIMAL.match(text.strip())
        if not m or (m.group(1) is None and not m.group(2)):
            raise ValueError(f"not a decimal threshold: {text!r}")
        whole = m.group(1) or "0"
        frac = m.group(2) or ""
        try:
            numerator = int(whole + frac)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ValueError(f"not a decimal threshold: {len(whole + frac)} digits") from None
        return cls(numerator, 10 ** len(frac))

    def times(self, factor: int) -> "Threshold":
        """Scale by a non-negative integer (e.g. delta times total utility)."""
        if factor < 0:
            raise ValueError("negative scale factor")
        return Threshold(self.numerator * factor, self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def decimal_digits(n: int) -> int:
    """Digits of n >= 0 in decimal, counted without str(), which refuses
    past sys.get_int_max_str_digits()."""
    digits = max(1, int((n.bit_length() - 1) * 0.30102999566398120))
    while n >= 10**digits:
        digits += 1
    return digits


def compare_at_least(value: int, threshold: Threshold) -> bool:
    """True iff value >= threshold, decided exactly by cross-multiplication."""
    return value * threshold.denominator >= threshold.numerator


def confidence_at_least(sup: int, ant_sup: int, minconf: Threshold) -> bool:
    """True iff sup / ant_sup >= minconf, decided exactly."""
    return sup * minconf.denominator >= ant_sup * minconf.numerator


def check_minconf(minconf: Threshold) -> None:
    """Raise ValueError unless minconf lies in (0, 1]: at 0 every cut qualifies, above 1 none."""
    if minconf.numerator <= 0 or minconf.numerator > minconf.denominator:
        raise ValueError("minconf must lie in (0, 1]")


@dataclass(frozen=True, slots=True, order=True)
class Rule:
    """A totally ordered sequential rule.

    Antecedent and consequent items each keep strict database order; no
    item repeats across the two sides. The utility is the rule sequence's
    utility over the whole database and the confidence is
    support / antecedent_support, exact. Rules compare as the tuple of
    their fields in declaration order; verify lists its differences in
    that order.
    """

    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]
    utility: int
    support: int
    antecedent_support: int

    def __post_init__(self) -> None:
        if not self.antecedent or not self.consequent:
            raise ValueError("rule sides must be non-empty")
        combined = self.antecedent + self.consequent
        if len(set(combined)) != len(combined):
            raise ValueError("rule items must be pairwise distinct")
        if not 1 <= self.support <= self.antecedent_support:
            raise ValueError("need 1 <= support <= antecedent_support")
        if self.utility < 0:
            raise ValueError("negative utility")

    @property
    def confidence(self) -> Fraction:
        return Fraction(self.support, self.antecedent_support)
