"""Reading and writing sequence databases, rules, and run statistics.

Two input encodings are supported. The native encoding puts one sequence
per line as whitespace-separated ``item:utility`` tokens, with ``#``
comment lines. The SPMF-style encoding puts one sequence per line as
``item[utility]`` tokens separated by ``-1`` markers and terminated by
``-2``, with an optional ``SUtility:<n>`` trailer that is ignored and
recomputed. Itemsets holding more than one item are rejected: events
never happen simultaneously in this model.

Files are read as UTF-8; a leading byte order mark is dropped, and bytes
that are not UTF-8 are a parse error on the line that holds them. A line
ends at ``\n``, ``\r\n`` or a bare ``\r``, whether the parsers are given
a file or a string.

Rule and statistics line formats are byte-exact contracts; golden tests
pin them.
"""

import io
import re
from pathlib import Path
from typing import IO, Iterable, Iterator, TextIO

from .model import (
    U64_MAX,
    ItemTable,
    Rule,
    Sequence,
    SequenceDatabase,
    gc_paused,
)


class ParseError(ValueError):
    """Input rejection carrying the 1-based line number of the bad line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _long_digits_value(digits: str) -> int:
    """Value of a digit string longer than int() converts; U64_MAX + 1 if
    it exceeds 64 bits. Only zero padding can leave such a string in range."""
    digits = digits.lstrip("0")
    return int(digits or "0") if len(digits) <= 20 else U64_MAX + 1


def _lines(stream: str | IO[str]) -> Iterable[str]:
    if isinstance(stream, str):
        # Split at \r, \n and \r\n, as files opened in text mode are.
        return io.StringIO(stream, newline=None)
    return stream


@gc_paused()
def parse_native(stream: str | IO[str]) -> SequenceDatabase:
    """Parse the native ``item:utility`` line format.

    Blank and ``#`` comment lines are skipped, not stored; sids follow
    the order of the remaining lines.
    """
    table = ItemTable()
    intern = table.intern
    seqs: list[Sequence] = []
    for lineno, raw in enumerate(_lines(stream), start=1):
        toks = raw.split()
        if not toks or toks[0].startswith("#"):
            continue
        ids: list[int] = []
        utils: list[int] = []
        for tok in toks:
            label, sep, utext = tok.rpartition(":")
            if not sep:
                raise ParseError(lineno, f"malformed token {tok!r}: expected item:utility")
            if not label:
                raise ParseError(lineno, f"empty item label in token {tok!r}")
            if not (utext.isascii() and utext.isdigit()):
                if utext.startswith("-") and utext[1:].isdigit():
                    raise ParseError(lineno, f"negative utility in token {tok!r}")
                raise ParseError(lineno, f"non-integer utility in token {tok!r}")
            try:
                utility = int(utext)
            except ValueError:
                utility = _long_digits_value(utext)
            if utility > U64_MAX:
                raise ParseError(lineno, f"utility out of 64-bit range in token {tok!r}")
            ids.append(intern(label))
            utils.append(utility)
        seqs.append(Sequence(len(seqs) + 1, tuple(ids), tuple(utils)))
    return SequenceDatabase(seqs, table)


_SPMF_EVENT = re.compile(r"^(.+)\[([0-9]+)\]$")
_SPMF_TRAILER = re.compile(r"^SUtility:[0-9]+$")


@gc_paused()
def parse_spmf(stream: str | IO[str]) -> SequenceDatabase:
    """Parse the SPMF-style ``item[utility] -1 ... -2`` line format.

    Only singleton itemsets are accepted. The SUtility trailer, when
    present, is ignored; total utility is always recomputed from the
    events themselves.
    """
    table = ItemTable()
    seqs: list[Sequence] = []
    for lineno, raw in enumerate(_lines(stream), start=1):
        line = raw.strip()
        if not line or line[0] in "#%@":
            continue
        ids: list[int] = []
        utils: list[int] = []
        itemset: list[tuple[int, int]] = []
        terminated = False
        for tok in line.split():
            if terminated:
                if _SPMF_TRAILER.match(tok):
                    continue
                raise ParseError(lineno, f"unexpected content after -2: {tok!r}")
            if tok == "-1":
                if len(itemset) > 1:
                    raise ParseError(lineno, "simultaneous events unsupported")
                if itemset:
                    item, utility = itemset.pop()
                    ids.append(item)
                    utils.append(utility)
            elif tok == "-2":
                if itemset:
                    raise ParseError(lineno, "itemset not closed by -1 before -2")
                terminated = True
            else:
                m = _SPMF_EVENT.match(tok)
                if not m:
                    raise ParseError(
                        lineno, f"malformed token {tok!r}: expected item[utility]"
                    )
                try:
                    utility = int(m.group(2))
                except ValueError:
                    utility = _long_digits_value(m.group(2))
                if utility > U64_MAX:
                    raise ParseError(
                        lineno, f"utility out of 64-bit range in token {tok!r}"
                    )
                itemset.append((table.intern(m.group(1)), utility))
        if not terminated:
            raise ParseError(lineno, "missing -2 terminator")
        if ids:
            seqs.append(Sequence(len(seqs) + 1, tuple(ids), tuple(utils)))
    return SequenceDatabase(seqs, table)


def load_database(path: str | Path, fmt: str = "auto") -> SequenceDatabase:
    """Load a database file, picking the parser by extension when fmt is auto.

    ``.usdb``/``.native`` parse as native; ``.spmf``/``.txt`` parse as
    SPMF. Anything else needs an explicit format.
    """
    path = Path(path)
    if fmt == "auto":
        suffix = path.suffix.lower()
        if suffix in (".usdb", ".native"):
            fmt = "native"
        elif suffix in (".spmf", ".txt"):
            fmt = "spmf"
        else:
            raise ValueError(
                f"cannot auto-detect format of {path.name!r}; pass an explicit format"
            )
    if fmt not in ("native", "spmf"):
        raise ValueError(f"unknown format {fmt!r}")
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return parse_native(handle) if fmt == "native" else parse_spmf(handle)
    except UnicodeDecodeError:
        # The failing decoder saw one chunk; decode the whole file to find
        # the line.
        raw = path.read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = raw[: exc.start]
            ends = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise ParseError(ends + 1, "not valid UTF-8") from None
        raise


def write_native(db: SequenceDatabase, stream: TextIO) -> None:
    """Write the native format, one line of token:utility pairs per sequence.

    Reading the text back with parse_native gives the same rows of
    (token, utility) pairs in the same order, but item ids and sids are
    reassigned: ids in first-appearance order, sids 1..n. So
    parse_native(write_native(db)) == db holds for a database that was
    parsed or built on its own, and not for a derived one, such as the
    output of prune_unpromising, whose item table keeps dropped tokens.

    Raises ValueError, before writing that sequence's line, when a
    sequence's first label starts with ``#``: the line would read back
    as a comment and the sequence would be lost. A ``#`` label anywhere
    else in a sequence round-trips.
    """
    token_of = db.items.token_of
    for seq in db.sequences:
        first = token_of(seq.items[0])
        if first.startswith("#"):
            raise ValueError(
                f"sequence {seq.sid} starts with label {first!r}, which the native "
                "format would read back as a comment"
            )
        pairs = zip(seq.items, seq.utils)
        stream.write(" ".join(f"{token_of(item)}:{utility}" for item, utility in pairs))
        stream.write("\n")


def dedup_max_utility(db: SequenceDatabase) -> SequenceDatabase:
    """Keep, per sequence and per item, the single highest-utility occurrence.

    Ties keep the earliest occurrence. Surviving events keep their
    original relative order, sids are preserved, and total utility is
    recomputed. Idempotent.
    """
    out: list[Sequence] = []
    for seq in db.sequences:
        items, utils = seq.items, seq.utils
        best: dict[int, int] = {}
        for k, item in enumerate(items):
            cur = best.get(item)
            if cur is None or utils[k] > utils[cur]:
                best[item] = k
        if len(best) == len(items):
            out.append(seq)
            continue
        keep = sorted(best.values())
        out.append(
            Sequence(seq.sid, tuple(items[k] for k in keep), tuple(utils[k] for k in keep))
        )
    return SequenceDatabase(out, db.items)


def half_up(num: int, den: int, places: int) -> str:
    """num / den in decimal, rounded half up at places decimal places, in
    exact integer arithmetic."""
    scale = 10**places
    whole, frac = divmod((2 * scale * num + den) // (2 * den), scale)
    return f"{whole}.{str(frac).zfill(places)}"


def _rule_lines(rules: Iterable[Rule], items: ItemTable) -> Iterator[str]:
    """Each rule's line, newline included, in the order given.

    A side's string is cached by its item tuple, and the cache is
    cleared whenever the first antecedent item changes: in mining order
    each top-level item's rules come together and every antecedent
    starts with that item, so no antecedent repeats across the change and
    the cache holds one item's sides at a time. Confidence strings are
    cached by (support, antecedent_support). Any order gives the same
    lines; other orders only hit the caches less.
    """
    token = items.token_of
    sides: dict[tuple[int, ...], str] = {}
    confs: dict[tuple[int, int], str] = {}
    head = None
    for rule in rules:
        ant = rule.antecedent
        if ant[0] != head:
            head = ant[0]
            sides.clear()
        ant_text = sides.get(ant)
        if ant_text is None:
            ant_text = sides[ant] = ",".join(map(token, ant))
        cons = rule.consequent
        cons_text = sides.get(cons)
        if cons_text is None:
            cons_text = sides[cons] = ",".join(map(token, cons))
        sup = rule.support
        pair = (sup, rule.antecedent_support)
        conf = confs.get(pair)
        if conf is None:
            conf = confs[pair] = half_up(sup, pair[1], 4)
        yield f"{ant_text} ==> {cons_text} #UTIL: {rule.utility} #SUP: {sup} #CONF: {conf}\n"


def format_rule(rule: Rule, items: ItemTable) -> str:
    """One rule's line as write_rules writes it, without the newline."""
    return next(_rule_lines((rule,), items))[:-1]


def write_rules(
    rules: Iterable[Rule], items: ItemTable, stream: TextIO, *, sort: bool = False
) -> None:
    """Emit one rule per line, in mining order unless sort is requested.

    Sorted order is utility descending, then antecedent and consequent
    token tuples lexicographically, for human consumption. Every line
    comes from one renderer, which formats each distinct rule side and
    confidence once (see _rule_lines), and goes out in one write.
    """
    if sort:
        token = items.tokens().__getitem__
        rules = sorted(
            rules,
            key=lambda r: (
                -r.utility,
                tuple(map(token, r.antecedent)),
                tuple(map(token, r.consequent)),
            ),
        )
    stream.writelines(_rule_lines(rules, items))


def write_stats(stats, stream: TextIO) -> None:
    """Emit run statistics as key=value lines.

    Two runs over the same input and flags differ only in runtime_ms.
    """
    minutil = stats.minutil
    stream.write(f"sequences={stats.sequences}\n")
    stream.write(f"distinct_items={stats.distinct_items}\n")
    stream.write(f"items_after_pruning={stats.items_after_pruning}\n")
    stream.write(f"minutil_num={minutil.numerator if minutil else 0}\n")
    stream.write(f"minutil_den={minutil.denominator if minutil else 1}\n")
    stream.write(f"candidates={stats.candidates}\n")
    stream.write(f"rules={stats.rules}\n")
    # One growth step per candidate: the key stays for output compatibility.
    stream.write(f"srtgrowth_calls={stats.candidates}\n")
    stream.write(f"rrs_prunes={stats.rrs_prunes}\n")
    stream.write(f"runtime_ms={stats.runtime_ms}\n")
    stream.write(f"view_prunes={stats.view_prunes}\n")
    stream.write(f"iip_prunes={stats.iip_prunes}\n")
