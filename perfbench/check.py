"""Output checks for one run, all made outside the timed spans.

Three checks, each failing the job it is applied to:

- the rule file, mapped back to base tokens and sorted, hashes to the
  workload's pinned canonical digest and holds the pinned rule count
  (any seed); for seed 1 the file itself hashes to the pinned digest;
- a seeded sample of rules is recomputed from the definitions with the
  brute-force oracle's ``max_embedding_utility`` and ``support_of``:
  utility, support, antecedent support, printed confidence, and both
  thresholds;
- every later job of the run writes the same bytes as the first.
"""

import hashlib
import random
import re

from husrm.model import SequenceDatabase, Threshold
from husrm.oracle import max_embedding_utility, support_of

SAMPLE_SIZE = 200
_RULE = re.compile(r"^(\S+) ==> (\S+) #UTIL: (\d+) #SUP: (\d+) #CONF: (\d+\.\d{4})$")


def file_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_sha256(lines: list[str], back: dict[str, str]) -> str:
    """Digest of the rule lines with tokens mapped back to base tokens, sorted."""
    out = []
    for line in lines:
        ant, _, rest = line.partition(" ==> ")
        cons, _, tail = rest.partition(" ")
        out.append(
            ",".join(back[t] for t in ant.split(","))
            + " ==> "
            + ",".join(back[t] for t in cons.split(","))
            + " "
            + tail
        )
    out.sort()
    return file_sha256(("\n".join(out) + "\n").encode() if out else b"")


def conf_4dp(sup: int, ant_sup: int) -> str:
    """sup / ant_sup rounded half up at four places, in integers."""
    scaled = (20000 * sup + ant_sup) // (2 * ant_sup)
    return f"{scaled // 10000}.{scaled % 10000:04d}"


def recheck_sample(
    lines: list[str], db: SequenceDatabase, minutil: Threshold, minconf: Threshold, seed: int
) -> list[str]:
    """Recompute a seeded sample of rules from the definitions; returns problems."""
    picks = sorted(random.Random(seed).sample(range(len(lines)), min(SAMPLE_SIZE, len(lines))))
    containing: dict[int, set[int]] = {}
    for index, seq in enumerate(db.sequences):
        for ev in seq.events:
            containing.setdefault(ev.item, set()).add(index)
    seqs = db.sequences
    problems = []
    for k in picks:
        line = lines[k]
        m = _RULE.match(line)
        if not m:
            problems.append(f"unparsable rule line {k + 1}: {line!r}")
            continue
        try:
            ant = tuple(db.items.id_of(t) for t in m.group(1).split(","))
            cons = tuple(db.items.id_of(t) for t in m.group(2).split(","))
        except KeyError as exc:
            problems.append(f"rule line {k + 1} names an item not in the input: {exc}")
            continue
        pattern = ant + cons
        util, sup = int(m.group(3)), int(m.group(4))
        # Only sequences holding every item of a pattern can embed it.
        cands = [seqs[i] for i in sorted(set.intersection(*(containing[i] for i in pattern)))]
        utils = [max_embedding_utility(seq, pattern) for seq in cands]
        true_util = sum(u for u in utils if u is not None)
        true_sup = sum(u is not None for u in utils)
        pattern_sup = support_of(SequenceDatabase(cands, db.items), pattern)
        ant_cands = [seqs[i] for i in sorted(set.intersection(*(containing[i] for i in ant)))]
        ant_sup = support_of(SequenceDatabase(ant_cands, db.items), ant)
        want = (util, sup)
        got = (true_util, true_sup)
        if got != want or pattern_sup != true_sup:
            problems.append(f"rule line {k + 1}: printed util/sup {want}, recomputed {got}")
        elif ant_sup < 1 or m.group(5) != conf_4dp(true_sup, ant_sup):
            problems.append(f"rule line {k + 1}: confidence {m.group(5)} vs {true_sup}/{ant_sup}")
        elif true_util * minutil.denominator < minutil.numerator:
            problems.append(f"rule line {k + 1}: utility {true_util} below minutil {minutil}")
        elif true_sup * minconf.denominator < ant_sup * minconf.numerator:
            problems.append(f"rule line {k + 1}: confidence {true_sup}/{ant_sup} below {minconf}")
    return problems
