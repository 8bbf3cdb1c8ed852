import hashlib
import io

import pytest

from husrm.dataio import parse_native, write_native
from husrm.datagen import GenParams, generate

from conftest import WORKLOADS


def serialize(db) -> str:
    buf = io.StringIO()
    write_native(db, buf)
    return buf.getvalue()


def test_empty_generation():
    db = generate(GenParams(0, 5, 3.0, 10, seed=1))
    assert len(db.sequences) == 0
    assert db.total_utility == 0


def test_same_seed_same_bytes():
    params = GenParams(200, 40, 6.0, 25, 1, 9, 1.0, seed=7)
    assert serialize(generate(params)) == serialize(generate(params))


# The native text of each benchmark workload's generated database: its
# length in bytes and its sha256. A generator change that alters them
# changes every workload's input.
WORKLOAD_INPUTS = {
    "search-sparse": (62291, "8773fab6ede16e290a61531af5e533f1e295e594e9fd6e05268ebe323173102a"),
    "ingest-wide": (904413, "f819872dfe332e293fc4f08ad4967a1cc615d5a5aafe020fa7f5ab41daf2912b"),
    "rule-flood": (19275, "cd64cd4cd3ec6f837adbb81b28e80593f1c770ad3d826db7e238578917fe9e2f"),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_inputs_are_pinned(name):
    data = serialize(generate(WORKLOADS[name][0])).encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == WORKLOAD_INPUTS[name]


def test_different_seeds_differ():
    a = GenParams(50, 40, 6.0, 25, seed=1)
    b = GenParams(50, 40, 6.0, 25, seed=2)
    assert serialize(generate(a)) != serialize(generate(b))


def test_shape_respects_parameters():
    params = GenParams(300, 12, 5.0, 9, utility_min=2, utility_max=4, item_skew=0.5, seed=3)
    db = generate(params)
    assert len(db.sequences) == 300
    tokens = {db.items.token_of(i) for i in db.distinct_items()}
    assert tokens <= {str(r) for r in range(1, 13)}
    for seq in db.sequences:
        assert 1 <= len(seq.events) <= 9
        for ev in seq.events:
            assert 2 <= ev.utility <= 4


def test_average_length_converges():
    params = GenParams(2000, 100, 12.0, 96, seed=5)
    db = generate(params)
    avg = sum(len(seq) for seq in db.sequences) / len(db.sequences)
    assert abs(avg - 12.0) / 12.0 < 0.10


def test_avg_length_one_means_singletons():
    db = generate(GenParams(50, 5, 1.0, 10, seed=9))
    assert all(len(seq) == 1 for seq in db.sequences)


def test_round_trips_through_native_format():
    db = generate(GenParams(120, 30, 4.0, 15, seed=11))
    assert parse_native(serialize(db)) == db


def test_zero_skew_is_uniformish():
    db = generate(GenParams(800, 4, 10.0, 60, item_skew=0.0, seed=13))
    counts = {}
    for seq in db.sequences:
        for ev in seq.events:
            counts[ev.item] = counts.get(ev.item, 0) + 1
    total = sum(counts.values())
    for item, count in counts.items():
        assert abs(count / total - 0.25) < 0.05


def test_parameter_validation():
    with pytest.raises(ValueError):
        GenParams(-1, 5, 3.0, 10)
    with pytest.raises(ValueError):
        GenParams(1, 0, 3.0, 10)
    with pytest.raises(ValueError):
        GenParams(1, 5, 0.5, 10)
    with pytest.raises(ValueError):
        GenParams(1, 5, 11.0, 10)
    with pytest.raises(ValueError):
        GenParams(1, 5, 3.0, 10, utility_min=5, utility_max=4)
    with pytest.raises(ValueError):
        GenParams(1, 5, 3.0, 10, item_skew=-0.5)
    with pytest.raises(ValueError, match="item_skew"):
        GenParams(1, 5, 3.0, 10, item_skew=float("nan"))
    with pytest.raises(ValueError, match="avg_length"):
        GenParams(1, 4, 1e17, 10**20)



def test_utility_max_is_capped_at_the_largest_stored_utility():
    top = 2**64 - 1
    db = generate(GenParams(3, 4, 2.0, 5, utility_min=top, utility_max=top, seed=1))
    assert {ev.utility for seq in db.sequences for ev in seq.events} == {top}
    with pytest.raises(ValueError, match="utility_max"):
        GenParams(3, 4, 2.0, 5, utility_min=top, utility_max=top + 1)
    with pytest.raises(ValueError, match="utility_max"):
        GenParams(3, 4, 2.0, 5, utility_max=top + 1)
