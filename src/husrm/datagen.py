"""Seeded synthetic sequence databases with controllable shape.

Sequence lengths follow a geometric law with the requested mean, clipped
at the hard cap. Items follow a Zipf law over a fixed integer-token
alphabet (exponent 0 is uniform). Utilities are uniform integers in the
closed range.

Determinism contract: every draw derives from random.Random(seed), the
stock Mersenne Twister, in a fixed order per event (length first via
inverse-transform on .random(), then per event one .random() for the
item rank and one .randint for the utility). One (params, seed) pair
therefore always yields the same database, byte for byte through the
native writer.
"""

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .model import U64_MAX, SequenceDatabase, build_database


@dataclass(frozen=True, slots=True)
class GenParams:
    num_sequences: int
    alphabet_size: int
    avg_length: float
    max_length: int
    utility_min: int = 1
    utility_max: int = 9
    item_skew: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sequences < 0:
            raise ValueError("num_sequences must be non-negative")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        if not 1 <= self.avg_length <= self.max_length:
            raise ValueError("need 1 <= avg_length <= max_length")
        if 1.0 - 1.0 / self.avg_length == 1.0:
            raise ValueError("avg_length is too large: 1 - 1/avg_length rounds to 1")
        if not 0 <= self.utility_min <= self.utility_max <= U64_MAX:
            raise ValueError(f"need 0 <= utility_min <= utility_max <= {U64_MAX}")
        if not self.item_skew >= 0:  # false for NaN too
            raise ValueError("item_skew must be non-negative")


def generate(params: GenParams) -> SequenceDatabase:
    """Generate a database fully determined by (params, seed)."""
    rng = random.Random(params.seed)
    weights = [rank ** -params.item_skew for rank in range(1, params.alphabet_size + 1)]
    cumulative = list(accumulate(weights))
    total_weight = cumulative[-1]
    tokens = [str(rank) for rank in range(1, params.alphabet_size + 1)]

    p = 1.0 / params.avg_length
    log_q = math.log(1.0 - p) if p < 1.0 else None

    rows: list[list[tuple[str, int]]] = []
    for _ in range(params.num_sequences):
        if log_q is None:
            length = 1
        else:
            u = rng.random()
            length = 1 + int(math.log(1.0 - u) / log_q)
            if length > params.max_length:
                length = params.max_length
        row: list[tuple[str, int]] = []
        for _ in range(length):
            rank = bisect_right(cumulative, rng.random() * total_weight)
            utility = rng.randint(params.utility_min, params.utility_max)
            row.append((tokens[rank], utility))
        rows.append(row)
    return build_database(rows)
