"""Fixtures shared by every test module."""

import pytest

from graphsamp import bench


@pytest.fixture(autouse=True)
def _empty_graph_setup_cache():
    """Start and end each test with an empty fixed-graph set-up cache.

    The cache lives as long as the process, so without this the order of
    the tests would decide whether a test builds its graph set-up or
    reuses one left by an earlier test, which matters to any test that
    patches ``bench``'s globals.
    """
    bench._graph_setup.cache_clear()
    yield
    bench._graph_setup.cache_clear()
