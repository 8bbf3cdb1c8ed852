"""Mining over forked worker processes, one bin of top-level items each.

The rules and every stats counter must not depend on the number of
bins, and a worker's failure must reach the caller as its own exception
(or, for a worker killed by a signal, as WorkerError) with every worker
reaped and the collector's state restored. The bin count is forced by
replacing the CPU count and the size cut-off, so these tests fork on any
machine, also on one CPU.
"""

import gc
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import husrm.miner as miner
from husrm import cli
from husrm.datagen import GenParams, generate
from husrm.dataio import load_database, write_native
from husrm.miner import VARIANTS, MiningConfig, WorkerError, mine
from husrm.model import InvariantError

from conftest import make_random_db, thr

SHAPES = {
    "search-sparse": (GenParams(450, 7312, 27.0, 213, 1, 10, 1.0, seed=1), "0.01", "0.6"),
    "rule-flood": (GenParams(400, 12, 12.0, 40, 1, 10, 1.0, seed=1), "0.03", "0.1"),
    # 39 of its 63 items have no successors; no bin mines them, so the
    # merge must skip them between the searched items.
    "ingest-wide": (GenParams(3000, 1000, 6.0, 40, 1, 10, 1.0, seed=1), "0.02", "0.1"),
}
FAILING_DB = GenParams(300, 40, 6.0, 20, seed=3)
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def force_bins(monkeypatch):
    """force_bins(n) makes mine split any table into min(n, items) bins."""

    def force(n):
        monkeypatch.setattr(miner, "_usable_cpus", lambda: n)
        monkeypatch.setattr(miner, "PARALLEL_MIN_EVENTS", 0)

    return force


def mine_in_bins(db, cfg, force_bins, n):
    force_bins(n)
    rules, stats = mine(db, cfg)
    stats.runtime_ms = 0
    return rules, stats


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_bin_count_changes_nothing(db, cfg, force_bins):
    expected = mine_in_bins(db, cfg, force_bins, 1)
    for n in (2, 3):
        assert mine_in_bins(db, cfg, force_bins, n) == expected, f"{n} bins"
    assert_no_worker_left()
    return expected


@pytest.mark.parametrize("variant", VARIANTS)
def test_random_corpus_is_the_same_in_every_bin_count(variant, force_bins):
    mined = 0
    for seed in range(40):
        db = make_random_db(seed)
        cfg = MiningConfig(thr("0.05").times(db.total_utility), thr("0.6"), variant=variant)
        rules, _ = assert_bin_count_changes_nothing(db, cfg, force_bins)
        mined += bool(rules)
    assert mined > 20


@pytest.mark.parametrize("shape", list(SHAPES))
def test_benchmark_shapes_are_the_same_in_every_bin_count(shape, force_bins):
    params, delta, minconf = SHAPES[shape]
    db = generate(params)
    cfg = MiningConfig(thr(delta).times(db.total_utility), thr(minconf))
    rules, stats = assert_bin_count_changes_nothing(db, cfg, force_bins)
    assert rules and stats.candidates
    assert stats.rrs_prunes and stats.view_prunes and stats.iip_prunes


def assert_sides_shared(rules):
    """Within each top-level item's rules, equal antecedents are one
    object and so are equal consequents; returns the count of distinct
    (item, side, value) keys."""
    seen = {}
    for rule in rules:
        for side, value in enumerate((rule.antecedent, rule.consequent)):
            assert seen.setdefault((rule.antecedent[0], side, value), value) is value, rule
    return len(seen)


def test_rule_sides_are_shared_within_each_item_in_every_bin_count(force_bins):
    params, delta, minconf = SHAPES["rule-flood"]
    db = generate(params)
    cfg = MiningConfig(thr(delta).times(db.total_utility), thr(minconf))
    expected = mine_in_bins(db, cfg, force_bins, 1)
    assert assert_sides_shared(expected[0]) < len(expected[0])
    for n in (2, 3):
        got = mine_in_bins(db, cfg, force_bins, n)
        assert got == expected, f"{n} bins"
        assert_sides_shared(got[0])


def held_bytes(rules):
    """Bytes of the list and of the objects its rules hold, each object
    counted once. Items and ints up to 256 are the interpreter's cached
    small ints, which no rule holds."""
    sizes = {id(rules): sys.getsizeof(rules)}
    for rule in rules:
        held = [rule, rule.antecedent, rule.consequent]
        held += [n for n in (rule.utility, rule.support, rule.antecedent_support) if n > 256]
        for obj in held:
            sizes.setdefault(id(obj), sys.getsizeof(obj))
    return sum(sizes.values())


def test_returned_rules_hold_at_most_150_bytes_each():
    # When every rule copied its two sides, this read 209 bytes per rule.
    db = generate(SHAPES["rule-flood"][0])
    rules, _ = mine(db, MiningConfig(thr("0.01").times(db.total_utility), thr("0.1")))
    assert len(rules) == 26153
    assert held_bytes(rules) / len(rules) <= 150


def split_table():
    """FAILING_DB's table at delta 0.03, where 31 of its 40 items have successors."""
    db = generate(FAILING_DB)
    minutil = thr("0.03").times(db.total_utility)
    srt = miner.SequenceRecordTable(miner.build_ult(db), minutil)
    searched = [item for item in srt.root if srt.successors[item]]
    assert 3 <= len(searched) < len(srt.root)
    return srt, searched


def test_split_is_longest_first_and_keeps_first_appearance_order(force_bins):
    srt, searched = split_table()
    seqs = srt.ult.seq_items.values()
    weight = {item: sum(item in items for items in seqs) for item in searched}
    force_bins(3)
    bin_of = miner._split(srt)
    # Exactly the items with successors, in first-appearance order, which
    # each bin's item list inherits.
    assert list(bin_of) == searched
    assert sorted(set(bin_of.values())) == [0, 1, 2]
    heaviest = max(searched, key=weight.__getitem__)  # max keeps the first on a tie
    assert bin_of[heaviest] == 0
    loads = [sum(weight[item] for item, b in bin_of.items() if b == k) for k in range(3)]
    assert max(loads) - min(loads) <= max(weight.values())
    assert list(miner._split(srt).items()) == list(bin_of.items())


def test_split_keeps_one_bin_below_the_cut_off_or_on_one_cpu(force_bins, monkeypatch):
    srt, searched = split_table()
    whole = [(item, 0) for item in searched]
    force_bins(1)
    assert list(miner._split(srt).items()) == whole
    force_bins(2)
    assert set(miner._split(srt).values()) == {0, 1}
    monkeypatch.setattr(miner, "PARALLEL_MIN_EVENTS", len(srt.ult) + 1)
    assert list(miner._split(srt).items()) == whole
    monkeypatch.setattr(miner, "PARALLEL_MIN_EVENTS", 0)
    monkeypatch.setattr(miner.threading, "active_count", lambda: 2)
    assert list(miner._split(srt).items()) == whole


def test_one_searched_item_mines_without_a_fork(monkeypatch):
    # 7,537 events, above the cut-off, but only 1 of the 13 items has
    # successors: a second bin would have no search to do.
    db = generate(GenParams(3000, 1000, 6.0, 40, 1, 10, 1.0, seed=1))
    cfg = MiningConfig(thr("0.1").times(db.total_utility), thr("0.1"))
    work = miner.prune_unpromising(db, cfg.minutil)
    srt = miner.SequenceRecordTable(miner.build_ult(work), cfg.minutil)
    assert len(srt.ult) >= miner.PARALLEL_MIN_EVENTS
    assert sum(1 for item in srt.root if srt.successors[item]) == 1
    monkeypatch.setattr(miner, "_usable_cpus", lambda: 1)
    expected = mine(db, cfg)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(miner, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(miner.os, "fork", counting_fork)
    rules, stats = mine(db, cfg)
    assert forks == []
    stats.runtime_ms = expected[1].runtime_ms
    assert (rules, stats) == expected


def fail_in_bin(monkeypatch, db, cfg, force_bins, b, action):
    """Make init_row run action() on the first item of bin b (0: the caller's)."""
    force_bins(2)
    work = miner.prune_unpromising(db, cfg.minutil)
    srt = miner.SequenceRecordTable(miner.build_ult(work), cfg.minutil)
    bad = next(item for item, bin_ in miner._split(srt).items() if bin_ == b)
    init_row = miner.init_row

    def failing_init_row(srt, item):
        if item == bad:
            action()
        return init_row(srt, item)

    monkeypatch.setattr(miner, "init_row", failing_init_row)


def raiser(exc):
    def action():
        raise exc

    return action


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    gc.enable()


@pytest.mark.parametrize("b", [0, 1], ids=["parent", "worker"])
@pytest.mark.parametrize(
    "exc",
    [InvariantError("injected"), MemoryError("injected"), RecursionError("injected"),
     KeyboardInterrupt("injected")],
    ids=lambda exc: type(exc).__name__,
)
def test_a_failing_bin_raises_its_own_exception(b, exc, collector, force_bins, monkeypatch):
    db = generate(FAILING_DB)
    cfg = MiningConfig(thr("0.01").times(db.total_utility), thr("0.6"))
    fail_in_bin(monkeypatch, db, cfg, force_bins, b, raiser(exc))
    with pytest.raises(type(exc), match="injected"):
        mine(db, cfg)
    assert_no_worker_left()
    assert gc.isenabled() is collector


class TwoArgs(Exception):
    """An exception that pickles but cannot be rebuilt from its args."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_a_worker_killed_by_a_signal_raises_worker_error(collector, force_bins, monkeypatch):
    db = generate(FAILING_DB)
    cfg = MiningConfig(thr("0.01").times(db.total_utility), thr("0.6"))
    fail_in_bin(monkeypatch, db, cfg, force_bins, 1, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(WorkerError, match="killed by SIGKILL"):
        mine(db, cfg)
    assert_no_worker_left()
    assert gc.isenabled() is collector
    # A worker that leaves no report, and one whose exception the caller
    # cannot unpickle, fail as WorkerError too: its exit status, or the
    # exception's text.
    for action, message in [
        (lambda: os._exit(3), "mining worker exited with status 3"),
        (raiser(TwoArgs(1, 2)), "TwoArgs: 1/2"),
    ]:
        monkeypatch.undo()
        fail_in_bin(monkeypatch, db, cfg, force_bins, 1, action)
        with pytest.raises(WorkerError, match=f"^{message}$"):
            mine(db, cfg)
        assert_no_worker_left()
        assert gc.isenabled() is collector


@pytest.mark.parametrize(
    "action, message",
    [
        (raiser(MemoryError()), "error: out of memory"),
        (raiser(RecursionError("maximum recursion depth exceeded")),
         "error: maximum recursion depth exceeded"),
        (raiser(InvariantError("injected")), "internal invariant failure: injected"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "error: mining worker killed by SIGKILL"),
    ],
    ids=["memory", "recursion", "invariant", "signal"],
)
def test_cli_exits_1_with_one_line_when_a_worker_fails(
    action, message, force_bins, monkeypatch, tmp_path, capsys
):
    db = generate(FAILING_DB)
    path = tmp_path / "db.usdb"
    with path.open("w", encoding="utf-8") as stream:
        write_native(db, stream)
    db = load_database(path)
    cfg = MiningConfig(thr("0.01").times(db.total_utility), thr("0.6"))
    fail_in_bin(monkeypatch, db, cfg, force_bins, 1, action)
    assert cli.main(["mine", str(path), "--delta", "0.01"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("[config] command=mine") == 1
    assert [line for line in err.splitlines() if not line.startswith("[config]")] == [message]
    assert_no_worker_left()


@pytest.mark.parametrize("n", [1, 2])
def test_cli_exits_2_with_one_line_without_a_temp_directory(
    n, force_bins, monkeypatch, tmp_path, capsys
):
    # Every bin, the caller's included, writes its records to a temp file.
    db = generate(FAILING_DB)
    path = tmp_path / "db.usdb"
    with path.open("w", encoding="utf-8") as stream:
        write_native(db, stream)
    force_bins(n)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    assert cli.main(["mine", str(path), "--delta", "0.01"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("[config] command=mine") == 1
    lines = [line for line in err.splitlines() if not line.startswith("[config]")]
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert_no_worker_left()


ORPHAN_SCRIPT = """
import os, signal, sys, time
import husrm.miner as miner
from husrm.datagen import GenParams, generate
from husrm.miner import MiningConfig, mine
from husrm.model import Threshold

pid_file, item_s = sys.argv[1], float(sys.argv[2])
miner._usable_cpus = lambda: 2
miner.PARALLEL_MIN_EVENTS = 0
parent = os.getpid()
init_row = miner.init_row

def init_row_then_wait(srt, item):
    if os.getpid() == parent:
        while not os.path.exists(pid_file):
            time.sleep(0.01)
        os.kill(parent, signal.SIGKILL)
    elif not os.path.exists(pid_file):
        with open(pid_file + ".tmp", "w") as f:
            f.write(str(os.getpid()))
        os.rename(pid_file + ".tmp", pid_file)
    time.sleep(item_s)
    return init_row(srt, item)

miner.init_row = init_row_then_wait
db = generate(GenParams(300, 40, 6.0, 20, seed=3))
mine(db, MiningConfig(Threshold.from_string("0.01").times(db.total_utility), Threshold(1, 2)))
"""


def running(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# Each top-level item takes item_s; an orphaned worker must be gone within
# deadline_s, which for the long item is well before its current item ends.
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("item_s, deadline_s", [(0.3, 3), (10, 1)])
def test_a_worker_stops_when_its_parent_is_killed(tmp_path, item_s, deadline_s):
    pid_file = tmp_path / "worker.pid"
    # No pipes: the orphaned worker would hold them open and run() would
    # wait for it.
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.run(
            [sys.executable, "-c", ORPHAN_SCRIPT, str(pid_file), str(item_s)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.DEVNULL,
            stderr=err,
            timeout=60,
        )
    assert proc.returncode == -signal.SIGKILL, (tmp_path / "stderr").read_text()
    worker = int(pid_file.read_text())
    deadline = time.monotonic() + deadline_s
    while running(worker) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not running(worker)
