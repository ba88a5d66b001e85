"""The package's public names, and the files its documentation points to."""

from __future__ import annotations

import re
from pathlib import Path

import cyclekit

ROOT = Path(__file__).parents[1]


def test_every_exported_name_resolves():
    assert [name for name in cyclekit.__all__ if not hasattr(cyclekit, name)] == []
    assert len(set(cyclekit.__all__)) == len(cyclekit.__all__)
    namespace: dict = {}
    exec("from cyclekit import *", namespace)
    assert set(cyclekit.__all__) <= namespace.keys()


def test_bench_pointers_resolve():
    # the README and the module docstrings cite measurements by file name
    cited = {}
    for path in [ROOT / "README.md", *sorted((ROOT / "src" / "cyclekit").glob("*.py"))]:
        for name in re.findall(r"BENCH_\w+\.json", path.read_text()):
            cited.setdefault(name, path.name)
    assert cited
    assert {name: where for name, where in cited.items() if not (ROOT / name).is_file()} == {}
