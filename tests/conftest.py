"""Shared fixtures: a tiny two-table catalog and a small TPC-H catalog.

Also provides a ``timeout`` marker so hung cancellation paths fail fast: the
real ``pytest-timeout`` plugin is used when installed (CI installs it); when
it is absent a SIGALRM-based shim enforces the marked limits locally.
"""
import signal

import pytest

from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, float_column, int_column, string_column
from repro.tpch.dbgen import generate_catalog

try:
    import pytest_timeout  # noqa: F401
    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than the limit")


if not _HAVE_PYTEST_TIMEOUT and hasattr(signal, "SIGALRM"):
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        marker = item.get_closest_marker("timeout")
        if marker is None or not marker.args:
            yield
            return
        seconds = float(marker.args[0])

        def _trip(signum, frame):
            raise TimeoutError(f"test exceeded its {seconds}s timeout")

        previous = signal.signal(signal.SIGALRM, _trip)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def build_tiny_catalog() -> Catalog:
    """The paper's running example: R(name, sid) and S(rid, val)."""
    catalog = Catalog()
    r_schema = TableSchema("R", [int_column("r_id"), string_column("r_name"),
                                 int_column("r_sid")], primary_key=("r_id",))
    # note: s_rid deliberately carries *no* foreign-key annotation — the data
    # contains a dangling rid (50), so compiled plans must keep bounds guards.
    s_schema = TableSchema("S", [int_column("s_id"), int_column("s_rid"),
                                 float_column("s_val")], primary_key=("s_id",))
    catalog.register(ColumnarTable(r_schema, {
        "r_id": [1, 2, 3, 4, 5],
        "r_name": ["R1", "R2", "R1", "R3", "R1"],
        "r_sid": [10, 20, 30, 10, 40],
    }))
    catalog.register(ColumnarTable(s_schema, {
        "s_id": [100, 101, 102, 103, 104, 105],
        "s_rid": [10, 30, 10, 50, 30, 40],
        "s_val": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    }))
    return catalog


@pytest.fixture()
def tiny_catalog() -> Catalog:
    return build_tiny_catalog()


@pytest.fixture(scope="session")
def tpch_catalog() -> Catalog:
    """A small deterministic TPC-H catalog shared by integration tests."""
    return generate_catalog(scale_factor=0.001, seed=20160626)


#: the fault sites that fail each ladder tier at every attempt
_TIER_FAULT_SITES = {"compiled": "engine.compiled.run",
                     "vectorized": "engine.vectorized.batch"}


@pytest.fixture()
def ladder_down_to():
    """``ladder_down_to(tier)``: fault specs that fail every
    :class:`~repro.robustness.fallback.HardenedExecutor` tier above ``tier``
    on every hit, so the ladder runs ``tier`` as if it were its first."""
    from repro.robustness.fallback import ENGINE_TIERS
    from repro.robustness.faults import EngineFault, FaultSpec

    def specs(tier: str) -> list:
        above = ENGINE_TIERS[:ENGINE_TIERS.index(tier)]
        return [FaultSpec(site=_TIER_FAULT_SITES[upper], error=EngineFault,
                          fires_on=None) for upper in above]
    return specs
