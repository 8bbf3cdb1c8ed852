"""The benchmark's workloads and their seeded inputs.

Each workload fixes a database shape (``husrm gen`` parameters, always
generated at generator seed 1) and the mining thresholds. The benchmark
seed then relabels items and reorders sequences: item tokens are
permuted among tokens of the same length, and sequence order is
shuffled. Every seed therefore gives a different input file with the
same bytes count, the same candidate space and the same rule set up to
relabeling, so a seed changes the input without changing the amount of
work. Drawing a fresh database per seed instead moves the work by up to
2x (rule-flood at 500 sequences and delta 0.003: 321k to 668k rules over
generator seeds 1..3), far wider than any bound a regression check can
use.

The pins were recorded with the miner at the commit that introduced the
benchmark. ``canonical_sha256`` is the sha256 of the rule lines mapped
back to base tokens and sorted, which holds for every seed;
``seed1_sha256`` is the sha256 of the rule file itself for seed 1, which
also pins the output order.
"""

import random
from dataclasses import dataclass

from husrm.datagen import GenParams, generate
from husrm.model import SequenceDatabase, build_database

BASE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    gen: dict
    delta: str
    minconf: str
    rules: int
    canonical_sha256: str
    seed1_sha256: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="search-sparse",
            gen=dict(num_sequences=450, alphabet_size=7312, avg_length=27.0, max_length=213),
            delta="0.01",
            minconf="0.6",
            rules=142,
            canonical_sha256="7be702265cbe072fc8da4a8c0ca857dbe0a7e8bbafe936d5486b30acd1d2f960",
            seed1_sha256="1303780e5a4e8d6340ecbedce2570c6ecfeb39912020441c4008c2fe9db705b5",
        ),
        Workload(
            name="ingest-wide",
            gen=dict(num_sequences=30000, alphabet_size=1000, avg_length=6.0, max_length=40),
            delta="0.02",
            minconf="0.1",
            rules=9,
            canonical_sha256="5edcf2c5a7a041e448be92d15c75f86a7515c889c5f5ada0a37ffb72f6f6acbd",
            seed1_sha256="4cb09881827ee74095f52d18e4a42644bda91d4de403fbc48a92343e1797f9cb",
        ),
        Workload(
            name="rule-flood",
            gen=dict(num_sequences=400, alphabet_size=12, avg_length=12.0, max_length=40),
            delta="0.006",
            minconf="0.1",
            rules=82556,
            canonical_sha256="381f2ba04f3695db3af3807760f0849c60ea2f28d463e5a0a7cc660f7d0a6635",
            seed1_sha256="0f2c14949c3cd996ede75aad4b39fc5ab283507b9c78026c180f9243fad69600",
        ),
    )
}


def gen_params(workload: Workload) -> GenParams:
    return GenParams(utility_min=1, utility_max=10, item_skew=1.0, seed=BASE_SEED, **workload.gen)


def relabeling(base: SequenceDatabase, rng: random.Random) -> dict[str, str]:
    """Random permutation of the base tokens that keeps every token's length."""
    by_len: dict[int, list[str]] = {}
    for token in sorted(base.items.tokens(), key=lambda t: (len(t), t)):
        by_len.setdefault(len(token), []).append(token)
    mapping: dict[str, str] = {}
    for tokens in by_len.values():
        shuffled = tokens[:]
        rng.shuffle(shuffled)
        mapping.update(zip(tokens, shuffled))
    return mapping


def make_input(workload: Workload, seed: int) -> tuple[SequenceDatabase, dict[str, str]]:
    """The seed's database and the map from its tokens back to base tokens."""
    base = generate(gen_params(workload))
    rng = random.Random(seed)
    mapping = relabeling(base, rng)
    token_of = base.items.token_of
    rows = [
        [(mapping[token_of(ev.item)], ev.utility) for ev in seq.events]
        for seq in base.sequences
    ]
    rng.shuffle(rows)
    back = {new: old for old, new in mapping.items()}
    return build_database(rows), back
