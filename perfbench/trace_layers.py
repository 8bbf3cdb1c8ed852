"""Outside-in layer tracing by rebinding the names the miner calls.

``install`` replaces the public functions that ``husrm.miner`` looks up
at call time (and ``SequenceDatabase.distinct_items``) with timing
wrappers; no file of the package changes. Every wrapper keeps a total
and a self time per layer, the self time being its duration minus the
wrapped calls it made. Coarse layers (load, prune, build, mine, write)
and each top-level item also get a span: name, start, end, parent span.
Hot calls (scans, growth, rule emission: about 85k of each on
rule-flood) are only aggregated, scans per path depth.

Counting work (scan positions, kept items) runs after the wrapped call
returns and is charged to no layer; the wrappers' own cost lands in the
caller's self time and shows in ``trace.overhead``.
"""

import os
import time
from collections import defaultdict

import husrm.miner as miner
from husrm.model import SequenceDatabase

_clock = time.perf_counter
_DEPTHS = ("d1", "d2", "d3", "d4up")


def _events(db) -> int:
    return sum(len(seq.events) for seq in db.sequences)


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self._children = [0.0]
        self._hidden = [0.0]
        self._open: list[int] = []
        self._item_span: int | None = None
        self._distinct_items = SequenceDatabase.distinct_items

    def wrap(self, layer, fn, *, coarse=False, after=None):
        """Timing wrapper for fn; after(args, result, seconds) counts work untimed."""
        children = self._children
        hidden = self._hidden
        total = self.total
        self_s = self.self_s
        calls = layer + ".calls"
        counts = self.counts
        spans = self.spans
        opened = self._open

        def wrapper(*args, **kwargs):
            if coarse:
                spans.append({"name": layer, "parent": opened[-1] if opened else None})
                opened.append(len(spans) - 1)
            hidden_before = hidden[0]
            t0 = _clock()
            children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                inner = children.pop()
                if coarse:
                    span = spans[opened.pop()]
                    span["start"] = t0
                    span["end"] = t1
            # Counting done by wrapped calls inside this one is not its time.
            dur = t1 - t0 - (hidden[0] - hidden_before)
            total[layer] += dur
            self_s[layer] += dur - inner
            counts[calls] += 1
            children[-1] += dur
            if after is not None:
                after(args, result, dur)
                hidden[0] += _clock() - t1
            return result

        return wrapper

    def _after_prune(self, args, result, _dur) -> None:
        c = self.counts
        c["bounds.prune.items_in"] += len(self._distinct_items(args[0]))
        c["bounds.prune.items_kept"] += len(self._distinct_items(result))
        c["bounds.prune.events_kept"] += _events(result)

    def _after_build(self, _args, result, _dur) -> None:
        self.counts["ult.build.events"] += len(result)

    def _after_init_row(self, args, result, _dur) -> None:
        self.counts["srt.init_row.occurrences"] += len(result.occurrences)

    def _before_init_row(self, fn):
        # Each init_row call opens the next top-level item: close the
        # previous item's span and open this one's, both at this instant.
        def wrapper(ult, item):
            self.close_item_span()
            now = _clock()
            parent = self._open[-1] if self._open else None
            self.spans.append({"name": "item", "item": item, "parent": parent, "start": now})
            self._item_span = len(self.spans) - 1
            return fn(ult, item)

        return wrapper

    def relative_spans(self) -> list[dict]:
        """Spans with times in seconds from the first span's start."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        out = []
        for span in self.spans:
            span = dict(span)
            span["start"] -= origin
            if "end" in span:
                span["end"] -= origin
            out.append(span)
        return out

    def close_item_span(self) -> None:
        if self._item_span is not None:
            self.spans[self._item_span]["end"] = _clock()
            self._item_span = None

    def _after_scan(self, args, result, dur) -> None:
        ult, srt = args[0], args[1]
        depth = len(srt)
        key = _DEPTHS[min(depth, 4) - 1]
        seq_items = ult.seq_items
        occs = srt.rows[-1].occurrences
        positions = 0
        for occ in occs:
            positions += len(seq_items[occ.sid]) - occ.entries[0][0]
        c = self.counts
        c["srt.scan.occurrences"] += len(occs)
        c["srt.scan.positions"] += positions
        c[f"srt.scan.{key}.calls"] += 1
        c[f"srt.scan.{key}.positions"] += positions
        self.total[f"srt.scan.{key}"] += dur
        if isinstance(result, tuple):
            cands, pruned = result
        else:
            cands, pruned = result, 0
        c["srt.scan.survivors"] += len(cands)
        c["srt.scan.pruned"] += pruned

    def _after_rule_produce(self, _args, result, _dur) -> None:
        self.counts["miner.rule_produce.rules"] += result
        if result:
            self.counts["miner.rule_produce.emitting"] += 1

    def install(self) -> None:
        """Rebind the names husrm.miner calls to timing wrappers."""
        w = self.wrap
        miner.dedup_max_utility = w("dataio.dedup", miner.dedup_max_utility, coarse=True)
        miner.prune_unpromising = w(
            "bounds.prune", miner.prune_unpromising, coarse=True, after=self._after_prune
        )
        miner.build_ult = w("ult.build", miner.build_ult, coarse=True, after=self._after_build)
        miner.init_row = self._before_init_row(
            w("srt.init_row", miner.init_row, after=self._after_init_row)
        )
        miner.scan_extensions_gated = w(
            "srt.scan", miner.scan_extensions_gated, after=self._after_scan
        )
        miner.scan_extensions = w("srt.scan", miner.scan_extensions, after=self._after_scan)
        miner.rule_produce = w(
            "miner.rule_produce", miner.rule_produce, after=self._after_rule_produce
        )
        miner.srt_growth = w("miner.growth", miner.srt_growth)
        SequenceDatabase.distinct_items = w("model.distinct_items", self._distinct_items)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced job, named after the modules."""
        t, c = self.total, self.counts
        scan_s = t["srt.scan"]
        positions = c["srt.scan.positions"]
        survivors, pruned = c["srt.scan.survivors"], c["srt.scan.pruned"]
        produce_calls = c["miner.rule_produce.calls"]
        m = {
            "dataio.load.s": t["dataio.load"],
            "dataio.load.events": c["dataio.load.events"],
            "dataio.load.bytes": c["dataio.load.bytes"],
            "dataio.write.s": t["dataio.write"],
            "dataio.write.rules": c["dataio.write.rules"],
            "dataio.write.bytes": c["dataio.write.bytes"],
            "model.distinct_items.s": t["model.distinct_items"],
            "bounds.prune.s": t["bounds.prune"],
            "bounds.prune.items_in": c["bounds.prune.items_in"],
            "bounds.prune.items_kept": c["bounds.prune.items_kept"],
            "bounds.prune.events_kept": c["bounds.prune.events_kept"],
            "ult.build.s": t["ult.build"],
            "ult.build.events": c["ult.build.events"],
            "srt.init_row.s": t["srt.init_row"],
            "srt.init_row.calls": c["srt.init_row.calls"],
            "srt.init_row.occurrences": c["srt.init_row.occurrences"],
            "srt.scan.s": scan_s,
            "srt.scan.calls": c["srt.scan.calls"],
            "srt.scan.occurrences": c["srt.scan.occurrences"],
            "srt.scan.positions": positions,
            "srt.scan.ns_per_position": scan_s * 1e9 / positions if positions else 0.0,
            "srt.scan.survivors": survivors,
            "srt.scan.pruned": pruned,
            "srt.scan.survive_ratio": (
                survivors / (survivors + pruned) if survivors + pruned else 0.0
            ),
        }
        for key in _DEPTHS:
            m[f"srt.scan.{key}.calls"] = c[f"srt.scan.{key}.calls"]
            m[f"srt.scan.{key}.positions"] = c[f"srt.scan.{key}.positions"]
            m[f"srt.scan.{key}.s"] = t[f"srt.scan.{key}"]
        m.update(
            {
                "miner.mine.s": t["miner.mine"],
                "miner.growth.calls": c["miner.growth.calls"],
                "miner.growth.self_s": self.self_s["miner.growth"],
                "miner.rule_produce.s": t["miner.rule_produce"],
                "miner.rule_produce.calls": produce_calls,
                "miner.rule_produce.rules": c["miner.rule_produce.rules"],
                "miner.rule_produce.emit_ratio": (
                    c["miner.rule_produce.emitting"] / produce_calls if produce_calls else 0.0
                ),
            }
        )
        # The base for layer shares: the traced job's own pipeline time.
        m["job.traced_s"] = t["dataio.load"] + t["miner.mine"] + t["dataio.write"]
        return m


def traced_pipeline(tracer: Tracer, load_database, mine, write_rules):
    """Wrap the job's own calls into dataio and the miner, with their counts."""
    c = tracer.counts

    def after_load(args, db, _dur):
        c["dataio.load.events"] += _events(db)
        c["dataio.load.bytes"] += os.path.getsize(args[0])

    def after_write(args, _result, _dur):
        c["dataio.write.rules"] += len(args[0])

    def after_mine(_args, _result, _dur):
        tracer.close_item_span()

    return (
        tracer.wrap("dataio.load", load_database, coarse=True, after=after_load),
        tracer.wrap("miner.mine", mine, coarse=True, after=after_mine),
        tracer.wrap("dataio.write", write_rules, coarse=True, after=after_write),
    )
