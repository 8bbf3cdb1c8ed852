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
    assert rules and stats.candidates and stats.rrs_prunes and stats.view_prunes


def test_split_is_longest_first_and_keeps_first_appearance_order(force_bins):
    db = generate(FAILING_DB)
    ult = miner.build_ult(db)
    weight = {item: len(ult.item_positions[item]) for item in ult.item_positions}
    order = list(ult.item_positions)
    force_bins(3)
    bins = miner._split(ult)
    assert len(bins) == 3
    assert sorted(item for b in bins for item in b) == sorted(order)
    for b in bins:
        assert b == sorted(b, key=order.index)
    heaviest = max(order, key=weight.__getitem__)  # max keeps the first on a tie
    assert heaviest in bins[0]
    loads = [sum(weight[item] for item in b) for b in bins]
    assert max(loads) - min(loads) <= max(weight.values())
    assert miner._split(ult) == bins


def test_split_keeps_one_bin_below_the_cut_off_or_on_one_cpu(force_bins, monkeypatch):
    db = generate(FAILING_DB)
    ult = miner.build_ult(db)
    whole = [list(ult.item_positions)]
    force_bins(1)
    assert miner._split(ult) == whole
    force_bins(2)
    assert len(miner._split(ult)) == 2
    monkeypatch.setattr(miner, "PARALLEL_MIN_EVENTS", len(ult) + 1)
    assert miner._split(ult) == whole
    monkeypatch.setattr(miner, "PARALLEL_MIN_EVENTS", 0)
    monkeypatch.setattr(miner.threading, "active_count", lambda: 2)
    assert miner._split(ult) == whole


def fail_in_bin(monkeypatch, db, cfg, force_bins, b, action):
    """Make init_row run action() on the first item of bin b (0: the caller's)."""
    force_bins(2)
    work = miner.prune_unpromising(db, cfg.minutil)
    bins = miner._split(miner.build_ult(work, minutil=cfg.minutil))
    bad = bins[b][0]
    init_row = miner.init_row

    def failing_init_row(ult, item):
        if item == bad:
            action()
        return init_row(ult, item)

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


def test_a_worker_killed_by_a_signal_raises_worker_error(collector, force_bins, monkeypatch):
    db = generate(FAILING_DB)
    cfg = MiningConfig(thr("0.01").times(db.total_utility), thr("0.6"))
    fail_in_bin(monkeypatch, db, cfg, force_bins, 1, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(WorkerError, match="killed by SIGKILL"):
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


ORPHAN_SCRIPT = """
import os, signal, sys, time
import husrm.miner as miner
from husrm.datagen import GenParams, generate
from husrm.miner import MiningConfig, mine
from husrm.model import Threshold

pid_file = sys.argv[1]
miner._usable_cpus = lambda: 2
miner.PARALLEL_MIN_EVENTS = 0
parent = os.getpid()
init_row = miner.init_row

def init_row_then_wait(ult, item):
    if os.getpid() == parent:
        while not os.path.exists(pid_file):
            time.sleep(0.01)
        os.kill(parent, signal.SIGKILL)
    elif not os.path.exists(pid_file):
        with open(pid_file + ".tmp", "w") as f:
            f.write(str(os.getpid()))
        os.rename(pid_file + ".tmp", pid_file)
    time.sleep(0.3)
    return init_row(ult, item)

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


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_a_worker_stops_when_its_parent_is_killed(tmp_path):
    pid_file = tmp_path / "worker.pid"
    # No pipes: the orphaned worker would hold them open and run() would
    # wait for it.
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.run(
            [sys.executable, "-c", ORPHAN_SCRIPT, str(pid_file)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.DEVNULL,
            stderr=err,
            timeout=60,
        )
    assert proc.returncode == -signal.SIGKILL, (tmp_path / "stderr").read_text()
    worker = int(pid_file.read_text())
    deadline = time.monotonic() + 3
    while running(worker) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not running(worker)
