"""The package's public names."""

import seidelspec


def test_every_exported_name_resolves():
    # a star import fails on a name in __all__ that the package lacks, as
    # when a function is deleted and its export is not
    namespace: dict = {}
    exec("from seidelspec import *", namespace)
    assert [name for name in seidelspec.__all__ if name not in namespace] == []
    assert len(set(seidelspec.__all__)) == len(seidelspec.__all__)
