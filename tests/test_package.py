import importlib

import pytest

import husrm


def test_every_export_resolves_once():
    assert len(husrm.__all__) == len(set(husrm.__all__))
    missing = [name for name in husrm.__all__ if not hasattr(husrm, name)]
    assert missing == []
    namespace: dict = {}
    exec("from husrm import *", namespace)
    assert set(husrm.__all__) <= namespace.keys()


def test_former_table_name_is_gone():
    assert not hasattr(husrm, "UtilityLinkedTable")
    assert "UtilityLinkedTable" not in husrm.__all__


# The search's steps are not root API; each stays importable from its module.
INTERNALS = {
    "bounds": ("prune_unpromising", "seu_per_item", "successor_sets"),
    "miner": ("find_cut_start", "rule_produce", "srt_growth"),
    "model": ("Event", "compare_at_least", "confidence_at_least"),
    "oracle": ("max_embedding_utility", "support_of"),
    "srt": ("SeqOccurrences", "SequenceRecordTable", "SrtRow", "init_row", "scan_extensions"),
    "ult": ("UtilityTable", "build_ult"),
}


@pytest.mark.parametrize("module", sorted(INTERNALS))
def test_search_internals_live_in_their_modules_only(module):
    names = INTERNALS[module]
    assert [name for name in names if hasattr(husrm, name)] == []
    loaded = importlib.import_module(f"husrm.{module}")
    assert [name for name in names if not hasattr(loaded, name)] == []
