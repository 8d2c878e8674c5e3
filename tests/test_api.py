import phasetrack as pt


def test_all_names_resolve():
    assert [name for name in pt.__all__ if not hasattr(pt, name)] == []


def test_all_has_no_duplicates():
    assert len(pt.__all__) == len(set(pt.__all__))
