"""Integration: the verifier is clean on the real pipeline, and verification
is strictly opt-in (the default path installs no hooks and pays nothing)."""
import pytest

import repro.analysis
from repro.analysis.verify import main as verify_main
from repro.codegen.compiler import QueryCompiler
from repro.stack.configs import build_config
from repro.storage.access import AccessLayer
from repro.storage.derived import COMPILED
from repro.tpch.queries import QUERY_NAMES, build_query

QUERIES = ("Q1", "Q3", "Q6", "Q10", "Q14", "Q19")


@pytest.fixture(autouse=True)
def _fresh_cache():
    QueryCompiler.clear_cache()
    yield
    QueryCompiler.clear_cache()


class TestVerifiedCompilation:
    @pytest.mark.parametrize("config_name", ["template-expander", "dblab-5",
                                             "tpch-compliant"])
    def test_queries_verify_clean_and_match_unverified(self, tpch_catalog,
                                                       config_name):
        config = build_config(config_name)
        plain = QueryCompiler(config.stack, config.flags)
        checked = QueryCompiler(config.stack, config.flags, verify=True)
        for query_name in QUERIES:
            expected = plain.compile(build_query(query_name), tpch_catalog,
                                     query_name=query_name).run(tpch_catalog)
            verified = checked.compile(build_query(query_name), tpch_catalog,
                                       query_name=query_name).run(tpch_catalog)
            assert verified == expected, query_name

    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_no_access_queries_verify_clean_and_match_unverified(
            self, tpch_catalog, query_name):
        """With the catalog access layer off every primary-key map is built
        in the query body, one write per key into a slots array: each pass
        over those loops must keep every write on the object it wrote."""
        config = build_config("dblab-5")
        flags = config.flags.copy_with(catalog_access_layer=False)
        plan = build_query(query_name)
        expected = QueryCompiler(config.stack, flags).compile(
            plan, tpch_catalog, query_name=query_name).run(tpch_catalog)
        verified = QueryCompiler(config.stack, flags, verify=True).compile(
            plan, tpch_catalog, query_name=query_name).run(tpch_catalog)
        assert verified == expected

    def test_verify_mode_bypasses_the_query_cache(self, tpch_catalog):
        config = build_config("dblab-5")
        plain = QueryCompiler(config.stack, config.flags)
        checked = QueryCompiler(config.stack, config.flags, verify=True)
        plan = build_query("Q6")
        plain.compile(plan, tpch_catalog, query_name="Q6")
        # a cached unverified compilation must not satisfy a verifying one
        assert not checked.compile(plan, tpch_catalog,
                                   query_name="Q6").cache_hit
        # and verified compilations are not inserted either
        derived = AccessLayer.for_catalog(tpch_catalog).derived
        before = derived.entry_count(COMPILED)
        checked.compile(plan, tpch_catalog, query_name="Q6")
        assert derived.entry_count(COMPILED) == before

    def test_default_path_installs_no_verification_hooks(self, tpch_catalog,
                                                         monkeypatch):
        """verify=False must never call into the analysis package."""

        def explode(*args, **kwargs):
            raise AssertionError("verifier invoked on the default path")

        monkeypatch.setattr(repro.analysis, "verify_program", explode)
        monkeypatch.setattr(repro.analysis, "audit_optimization", explode)
        monkeypatch.setattr(repro.analysis, "verify_source", explode)
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        rows = compiler.compile(build_query("Q6"), tpch_catalog,
                                query_name="Q6").run(tpch_catalog)
        assert rows

    def test_verify_mode_does_use_the_hooks(self, tpch_catalog, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("hook ran")

        monkeypatch.setattr(repro.analysis, "audit_optimization", explode)
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags, verify=True)
        with pytest.raises(AssertionError, match="hook ran"):
            compiler.compile(build_query("Q6"), tpch_catalog,
                             query_name="Q6")


class TestVerifyDriver:
    def test_cli_driver_green_on_subset(self, capsys):
        exit_code = verify_main(["--queries", "Q1,Q6",
                                 "--configs", "dblab-5,tpch-compliant"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "4/4 verified clean" in out

    def test_cli_driver_rejects_unknown_query(self):
        with pytest.raises(SystemExit):
            verify_main(["--queries", "Q99"])
