"""The package's public names."""

from __future__ import annotations

import cyclekit


def test_every_exported_name_resolves():
    assert [name for name in cyclekit.__all__ if not hasattr(cyclekit, name)] == []
    assert len(set(cyclekit.__all__)) == len(cyclekit.__all__)
    namespace: dict = {}
    exec("from cyclekit import *", namespace)
    assert set(cyclekit.__all__) <= namespace.keys()
