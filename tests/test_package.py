"""The package's public names."""

import spgae


def test_every_export_resolves_once():
    assert len(set(spgae.__all__)) == len(spgae.__all__)
    missing = [name for name in spgae.__all__ if not hasattr(spgae, name)]
    assert missing == []
