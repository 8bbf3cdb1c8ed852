"""One mining job, run by ``run.py`` in a fresh interpreter.

    python3 -E -s perfbench/job.py MODE INPUT RULES RESULT DELTA MINCONF

MODE is ``plain`` (load, mine, write through the public pipeline),
``trace`` (the same with the layer tracer installed; the spans go to
RESULT's sibling ``.spans.json``) or ``ult-bytes`` (load and prune as
``mine`` does, then measure the memory ``build_ult`` keeps with
tracemalloc; nothing in this mode is timed). RESULT receives a JSON
object; ``loaded_at`` is the ``time.monotonic()`` instant at which
``load_database`` returned, the end of the job's set-up.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import husrm  # noqa: E402
from husrm.dataio import load_database, write_rules  # noqa: E402
from husrm.miner import MiningConfig, mine  # noqa: E402
from husrm.model import Threshold  # noqa: E402


def check_import() -> None:
    """Refuse to measure any husrm but the one under this checkout's src/."""
    where = Path(husrm.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"husrm imported from {where}, not from {SRC}")


def config(db, delta: str, minconf: str) -> MiningConfig:
    minutil = Threshold.from_string(delta).times(db.total_utility)
    return MiningConfig(minutil, Threshold.from_string(minconf), threads=1)


def run_ult_bytes(input_path: str, delta: str, minconf: str) -> dict:
    import tracemalloc

    import husrm.miner as miner

    db = load_database(input_path)
    cfg = config(db, delta, minconf)
    work = db
    if cfg.use_seu_prune:
        work = miner.prune_unpromising(work, cfg.minutil, distinct_max=cfg.seu_distinct_max)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    ult = miner.build_ult(work, use_rru=cfg.use_rru)
    kept = tracemalloc.get_traced_memory()[0] - before  # ult is still referenced here
    tracemalloc.stop()
    del ult
    return {"ult_bytes": kept}


def main(argv: list[str]) -> int:
    mode, input_path, rules_path, result_path, delta, minconf = argv
    check_import()
    if mode == "ult-bytes":
        result = run_ult_bytes(input_path, delta, minconf)
    else:
        load, run_mine, write = load_database, mine, write_rules
        tracer = None
        if mode == "trace":
            from trace_layers import Tracer, traced_pipeline

            tracer = Tracer()
            tracer.install()
            load, run_mine, write = traced_pipeline(tracer, load, run_mine, write)
        db = load(input_path)
        loaded_at = time.monotonic()
        rules, _stats = run_mine(db, config(db, delta, minconf))
        with open(rules_path, "w", encoding="utf-8") as stream:
            write(rules, db.items, stream)
        result = {"loaded_at": loaded_at, "rules": len(rules)}
        if tracer is not None:
            tracer.counts["dataio.write.bytes"] = Path(rules_path).stat().st_size
            result["layers"] = tracer.metrics()
            spans_path = Path(result_path).with_suffix(".spans.json")
            spans_path.write_text(json.dumps(tracer.relative_spans()))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
