import ptmatrix as pt


def test_every_exported_name_resolves_and_is_listed_once():
    # a name deleted from the library cannot stay in __all__
    assert len(pt.__all__) == len(set(pt.__all__))
    missing = [name for name in pt.__all__ if not hasattr(pt, name)]
    assert missing == []
