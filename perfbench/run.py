"""The husrm benchmark: closed-loop mining jobs on seeded workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a husrm checkout. One client runs one ``mine`` job
at a time, each in a fresh interpreter (``job.py``) that calls the
public pipeline ``load_database`` -> ``mine`` -> ``write_rules`` with
threads=1 on a file generated from the seed before any timing starts.
Jobs repeat until ``--seconds`` have passed; each timing is the median
over the run's jobs.

``--trace 0`` reports the end-to-end metrics: ``mine_s`` (launch to
exit, rules written), ``setup_s`` (launch to ``load_database``
returning), ``cpu_s`` (user+sys of the child, from ``os.wait4``) and
``peak_rss_mb`` (the child's ``ru_maxrss``). ``--trace 1`` alternates
untraced and traced jobs and reports the traced per-layer metrics, plus
``ult.bytes`` from a separate tracemalloc pass and ``trace.overhead``,
traced over untraced ``mine_s``.

Outputs are checked after the jobs (see ``check.py``); a crash, a
timeout or a wrong output counts as a failed job. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
JOB = Path(__file__).resolve().parent / "job.py"
JOB_TIMEOUT_S = 40.0


def wait_child(pid: int, timeout: float) -> tuple[int, object, bool]:
    """Reap pid, killing it after timeout seconds; (status, rusage, timed out)."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    return status, usage, not ready


class Runner:
    """Runs jobs of one workload on one input file, in a work directory."""

    def __init__(self, workload, input_path: Path, work: Path) -> None:
        self.workload = workload
        self.input_path = input_path
        self.work = work
        self.outputs: dict[str, Path] = {}

    def job(self, mode: str) -> dict:
        """One child process; its timings, the digest of its rules, or an error."""
        rules = self.work / f"rules-{mode}.txt"
        result = self.work / f"result-{mode}.json"
        errors = self.work / f"stderr-{mode}.txt"
        result.unlink(missing_ok=True)
        cmd = [
            sys.executable, "-E", "-s", str(JOB), mode, str(self.input_path), str(rules),
            str(result), self.workload.delta, self.workload.minconf,
        ]
        with open(errors, "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
            )
            status, usage, timed_out = wait_child(proc.pid, JOB_TIMEOUT_S)
            exited = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        out = {
            "mode": mode,
            "mine_s": exited - launched,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        if timed_out:
            out["error"] = f"timed out after {JOB_TIMEOUT_S:.0f} s"
        elif proc.returncode != 0:
            tail = errors.read_text(errors="replace").strip().splitlines()[-1:]
            out["error"] = f"exit code {proc.returncode}: {' '.join(tail)}"
        else:
            data = json.loads(result.read_text())
            out.update(data)
            if "loaded_at" in data:
                out["setup_s"] = data["loaded_at"] - launched
            if mode != "ult-bytes":
                digest = hashlib.sha256(rules.read_bytes()).hexdigest()
                out["sha256"] = digest
                if digest not in self.outputs:
                    kept = self.work / f"rules-{digest[:16]}.txt"
                    rules.replace(kept)
                    self.outputs[digest] = kept
        return out


def check_outputs(runner: Runner, jobs: list[dict], db, back, seed: int) -> list[str]:
    """Check each distinct rule file once; mark the jobs that wrote a bad one."""
    import check
    from husrm.model import Threshold

    wl = runner.workload
    minutil = Threshold.from_string(wl.delta).times(db.total_utility)
    minconf = Threshold.from_string(wl.minconf)
    problems = []
    if len(runner.outputs) > 1:
        problems.append(f"jobs wrote {len(runner.outputs)} different rule files")
    for digest, path in runner.outputs.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        found = []
        if len(lines) != wl.rules:
            found.append(f"{len(lines)} rules, pinned {wl.rules}")
        if check.canonical_sha256(lines, back) != wl.canonical_sha256:
            found.append("rule set differs from the pinned canonical digest")
        if seed == 1 and digest != wl.seed1_sha256:
            found.append("seed-1 rule file differs from the pinned digest")
        found += check.recheck_sample(lines, db, minutil, minconf, seed)
        for job in jobs:
            if job.get("sha256") == digest:
                if found or len(runner.outputs) > 1:
                    job.setdefault("error", "wrong output")
        problems += found
    return problems


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ns_per_position"):
        return "ns"
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


def end_to_end(jobs: list[dict]) -> dict[str, list[float]]:
    """Samples of each end-to-end metric over the good jobs."""
    good = [j for j in jobs if "error" not in j]
    if not good:
        return {}
    return {name: [j[name] for j in good] for name in ("mine_s", "setup_s", "cpu_s", "peak_rss_mb")}


def per_layer(traced: list[dict], plain: list[dict], ult: dict) -> tuple[dict, list[str]]:
    """Samples of the traced layer metrics; counts must repeat exactly."""
    problems = []
    layers = [j["layers"] for j in traced if "error" not in j]
    plain_s = [j["mine_s"] for j in plain if "error" not in j]
    if not layers or not plain_s or "ult_bytes" not in ult:
        return {}, problems
    out = {name: [m[name] for m in layers] for name in layers[0]}
    for name, values in out.items():
        if unit_of(name) == "count" and len(set(values)) > 1:
            problems.append(f"traced count {name} differs between jobs: {sorted(set(values))}")
    out["ult.bytes"] = [ult["ult_bytes"]]
    traced_s = [j["mine_s"] for j in traced if "error" not in j]
    out["trace.overhead"] = [statistics.median(traced_s) / statistics.median(plain_s)]
    return out, problems


def provenance(workload, seed: int) -> dict:
    git = None
    try:
        if not (ROOT / ".git").exists():
            raise FileNotFoundError(ROOT / ".git")
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            git = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "husrm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": workload.name,
        "gen": workload.gen,
        "delta": workload.delta,
        "minconf": workload.minconf,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "husrm" / "__init__.py").is_file():
        print(f"no husrm package under {SRC}: run from a husrm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import husrm
    from husrm.dataio import write_native

    from workloads import WORKLOADS, make_input

    if SRC.resolve() not in Path(husrm.__file__).resolve().parents:
        print(f"husrm imported from {husrm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    for stale in work.iterdir():
        stale.unlink()
    db, back = make_input(workload, args.seed)
    input_path = work / f"input-seed{args.seed}.usdb"
    with open(input_path, "w", encoding="utf-8") as stream:
        write_native(db, stream)
    runner = Runner(workload, input_path, work)

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    # Start another round only if a round of median length still fits.
    rounds: list[float] = []
    while not rounds or time.monotonic() - start + statistics.median(rounds) <= args.seconds:
        began = time.monotonic()
        plain.append(runner.job("plain"))
        if args.trace:
            traced.append(runner.job("trace"))
        rounds.append(time.monotonic() - began)
    ult = runner.job("ult-bytes") if args.trace else {}
    jobs = plain + traced + ([ult] if ult else [])
    problems = check_outputs(runner, plain + traced, db, back, args.seed)

    if args.trace:
        metrics, more = per_layer(traced, plain, ult)
        problems += more
    else:
        metrics = end_to_end(plain)
    failed = sum("error" in j for j in jobs)
    problems += [f"{j['mode']} job: {j['error']}" for j in jobs if "error" in j]

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}:"
          f" {len(jobs)} jobs, {failed} failed, {time.monotonic() - start:.1f} s")
    for i, job in enumerate(jobs, start=1):
        timing = " ".join(f"{k}={job[k]:.4f}" for k in ("mine_s", "setup_s", "cpu_s") if k in job)
        print(f"job {i} {job['mode']}: {timing} {job.get('error', '')}")
    # Counts repeat exactly across traced jobs; median_low keeps them integers.
    medians = {
        name: (statistics.median_low if unit_of(name) in ("count", "bytes") else statistics.median)(
            values
        )
        for name, values in metrics.items()
    }
    print(f"{'metric':34} {'unit':6} {'n':>3} {'median':>14} {'min':>14} {'max':>14}")
    for name, values in metrics.items():
        print(f"{name:34} {unit_of(name):6} {len(values):3d} {medians[name]:14.6g}"
              f" {min(values):14.6g} {max(values):14.6g}")
    if args.trace and metrics:
        layer = medians
        base = layer["job.traced_s"]
        shares = {
            "srt.scan": layer["srt.scan.s"],
            "front end (load+prune+build+init_row)": layer["dataio.load.s"]
            + layer["bounds.prune.s"] + layer["ult.build.s"] + layer["srt.init_row.s"],
            "emit (rule_produce+write)": layer["miner.rule_produce.s"] + layer["dataio.write.s"],
            "miner.growth self": layer["miner.growth.self_s"],
        }
        for label, value in shares.items():
            print(f"share {label}: {value / base:.1%} of job.traced_s {base:.3f} s")
    for problem in problems:
        print(f"problem: {problem}")
    print("provenance " + json.dumps(provenance(workload, args.seed), sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in medians.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
