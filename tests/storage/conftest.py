"""Fixtures shared by the storage tests."""
import pytest

from repro.robustness.fallback import HardenedExecutor
from repro.storage.loader import warm_access_paths
from repro.tpch.dbgen import generate_catalog
from repro.tpch.queries import QUERY_NAMES, build_query


@pytest.fixture(scope="module")
def warm_catalog():
    """sf 0.01 warmed as a server warms it: the load-time access paths,
    then every structure the 22 planned queries read."""
    catalog = generate_catalog(scale_factor=0.01, seed=20160626)
    warm_access_paths(catalog)
    executor = HardenedExecutor(catalog)
    for name in QUERY_NAMES:
        executor.warm(build_query(name), name)
    return catalog
