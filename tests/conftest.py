"""Tier-1 fails on any warning that no test declares: a PrecisionWarning, a
TieWarning or a numpy floating-point warning is an error unless the test
expects it (pytest.warns, or a warnings filter of its own).

The filter is a mark on each test collected here rather than pyproject's
filterwarnings, which would also govern bench/test_bench.py."""

from pathlib import Path

import pytest

HERE = Path(__file__).parent
UNDECLARED = pytest.mark.filterwarnings("error::UserWarning", "error::RuntimeWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(HERE):
            item.add_marker(UNDECLARED, append=False)
