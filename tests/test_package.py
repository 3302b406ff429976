"""The package's public namespace."""

import subspacepde


def test_every_exported_name_resolves():
    missing = [name for name in subspacepde.__all__ if not hasattr(subspacepde, name)]
    assert missing == []
