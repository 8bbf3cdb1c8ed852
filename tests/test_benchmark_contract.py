"""The benchmark's job script must keep running against this package.

perfbench/job.py drives the miner through its public pipeline and, in
trace mode, rebinds the module globals of husrm.miner. A refactor that
renames one of those globals or changes its signature breaks the
benchmark without breaking any other test; running each job mode here
catches that. A full traced run of perfbench/run.py also re-checks the
rule file against the workload's pins and the oracle and requires every
traced count to repeat; exit 0 alone shows none of that. Nothing under
perfbench/ is modified.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from husrm.dataio import load_database
from husrm.miner import MiningConfig, mine

from conftest import SAMPLE_NATIVE, WORKLOADS, thr

ROOT = Path(__file__).resolve().parent.parent
JOB = ROOT / "perfbench" / "job.py"
DELTA, MINCONF = "0.1", "0.6"


@pytest.fixture
def sample_path(tmp_path):
    path = tmp_path / "sample.usdb"
    path.write_text(SAMPLE_NATIVE, encoding="utf-8")
    return path


def run_job(mode, input_path, tmp_path):
    rules = tmp_path / f"{mode}.rules"
    result = tmp_path / f"{mode}.json"
    proc = subprocess.run(
        [sys.executable, "-E", "-s", str(JOB), mode, str(input_path), str(rules), str(result),
         DELTA, MINCONF],
        cwd=JOB.parent.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def expected_rule_count(input_path):
    db = load_database(str(input_path))
    minutil = thr(DELTA).times(db.total_utility)
    rules, _ = mine(db, MiningConfig(minutil, thr(MINCONF)))
    return len(rules)


@pytest.mark.parametrize("mode", ["plain", "trace"])
def test_job_mines_the_same_rules(mode, sample_path, tmp_path):
    result = run_job(mode, sample_path, tmp_path)
    assert result["rules"] == expected_rule_count(sample_path) == 4
    if mode == "trace":
        layers = result["layers"]
        assert layers["miner.rule_produce.rules"] == 4
        assert layers["srt.scan.calls"] > 0
        # The tracer reads these off the gated scan's (rows, rrs_dropped)
        # return value; a change of that shape would zero them.
        assert (layers["srt.scan.pruned"], layers["srt.scan.survivors"]) == (1, 15)
        # The tracer counts positions from each occurrence's first stored
        # end, entries[0][0], so dropping that end would change these.
        assert (layers["srt.scan.positions"], layers["srt.scan.occurrences"]) == (33, 31)
        # The tracer wraps init_row(x, item), one call per searched item,
        # and counts each returned row's occurrences; the scans of the
        # top-level rows are the depth-1 scans. Building the top-level
        # rows from a root must not show up as scans or change the calls.
        assert (layers["srt.init_row.calls"], layers["srt.init_row.occurrences"]) == (4, 12)
        assert layers["srt.scan.d1.calls"] == 4


def test_job_measures_the_utility_table(sample_path, tmp_path):
    assert run_job("ult-bytes", sample_path, tmp_path)["ult_bytes"] > 0


@pytest.mark.parametrize("workload", ["search-sparse", "ingest-wide", "rule-flood"])
def test_traced_benchmark_run_is_correct(workload, tmp_path):
    # run.py works in a directory beside the checkout's src/; a copy keeps
    # its files out of this checkout and away from a concurrent run.
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout


def test_test_suite_workloads_are_the_benchmarks():
    # The tests mine conftest.WORKLOADS as stand-ins for the benchmark's
    # databases; they must keep the benchmark's shapes and thresholds.
    path = JOB.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    for name, (params, delta, minconf) in WORKLOADS.items():
        bench = workloads.WORKLOADS[name]
        assert params == workloads.gen_params(bench)
        assert (delta, minconf) == (bench.delta, bench.minconf)
