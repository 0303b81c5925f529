import rorokit


def test_every_exported_name_resolves_once():
    # A name left in __all__ after its removal fails only `from rorokit import *`.
    assert [name for name in rorokit.__all__ if not hasattr(rorokit, name)] == []
    assert len(set(rorokit.__all__)) == len(rorokit.__all__)
