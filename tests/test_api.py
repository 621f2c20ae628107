import primecover


def test_every_exported_name_resolves_once():
    names = primecover.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(primecover, name)]
    assert missing == []
