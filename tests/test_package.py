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
