import pytest

from orbispin import orbits


@pytest.fixture(autouse=True)
def fresh_partitions():
    """Start every test with no partition made, so that a test which patches an
    engine or the twist formulas sees its patch run instead of an earlier
    test's partition of the same (g, r)."""
    orbits._partition.cache_clear()
