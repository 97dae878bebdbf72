import pytest

from orbispin import orbits
from helpers import forget_censuses


@pytest.fixture(autouse=True)
def fresh_partitions():
    """Start every test with no partition or census made, so that a test which
    patches an engine, the twist formulas or a closed form sees its patch run
    instead of an earlier test's result at the same (g, r)."""
    orbits._partition.cache_clear()
    forget_censuses()
