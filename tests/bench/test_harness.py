"""Tests for the benchmark harness and the lines-of-code accounting."""
import pytest

from repro.bench.harness import BenchmarkHarness, ENGINE_NAMES, Measurement
from repro.bench.loc import count_loc, format_table4, loc_by_package, table4
from repro.codegen.compiler import QueryCompiler
from repro.tpch.dbgen import generate_catalog
from repro.tpch.queries import build_query


@pytest.fixture(scope="module")
def harness():
    catalog = generate_catalog(scale_factor=0.0005, seed=3)
    return BenchmarkHarness(catalog, repetitions=1)


class TestHarness:
    def test_measure_interpreter(self, harness):
        measurement = harness.measure("Q6", "interpreter")
        assert isinstance(measurement, Measurement)
        assert measurement.run_seconds > 0
        assert measurement.engine == "interpreter"

    def test_measure_template_expander_and_compiled(self, harness):
        te = harness.measure("Q6", "template-expander")
        compiled = harness.measure("Q6", "dblab-5")
        assert te.compile_seconds > 0
        assert compiled.compile_seconds > 0
        assert compiled.rows == te.rows

    def test_measure_vectorized_matches_interpreter(self, harness):
        interp = harness.measure("Q6", "interpreter")
        vectorized = harness.measure("Q6", "vectorized")
        assert vectorized.engine == "vectorized"
        assert vectorized.rows == interp.rows

    def test_unknown_engine_rejected(self, harness):
        with pytest.raises(KeyError):
            harness.measure("Q6", "quantum-engine")

    def test_table3_rows_consistent_across_engines(self, harness):
        results = harness.table3(queries=["Q6", "Q14"],
                                 engines=["interpreter", "dblab-3", "dblab-5"])
        for per_engine in results.values():
            row_counts = {m.rows for m in per_engine.values()}
            assert len(row_counts) == 1

    def test_format_table3(self, harness):
        results = harness.table3(queries=["Q6"], engines=["interpreter", "dblab-5"])
        text = BenchmarkHarness.format_table3(results)
        assert "Q6" in text and "interpreter" in text and "dblab-5" in text

    def test_figure8_memory(self, harness):
        memory = harness.figure8_memory(queries=["Q6"])
        assert memory["Q6"].peak_memory_bytes > 0

    def test_figure9_compilation_split(self, harness):
        split = harness.figure9_compilation(queries=["Q6", "Q3"])
        for data in split.values():
            assert data["total"] == pytest.approx(data["generation"] + data["target_compile"])
            assert data["source_lines"] > 10

    def test_speedups_and_geometric_mean(self, harness):
        results = harness.table3(queries=["Q6"], engines=["interpreter", "dblab-5"])
        speedups = BenchmarkHarness.speedups(results, "interpreter", "dblab-5")
        assert "Q6" in speedups and speedups["Q6"] > 0
        assert BenchmarkHarness.geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert BenchmarkHarness.geometric_mean([]) == 0.0

    def test_compiled_queries_are_cached(self, harness):
        harness.measure("Q6", "dblab-5")
        misses = QueryCompiler.cache_stats.misses
        harness.measure("Q6", "dblab-5")
        assert QueryCompiler.cache_stats.misses == misses
        assert harness._compiled("Q6", "dblab-5", build_query("Q6")).cache_hit

    def test_raw_and_planned_compile_separately(self, harness):
        QueryCompiler.clear_cache()
        harness.measure("Q6", "dblab-3", optimize=False)
        harness.measure("Q6", "dblab-3", optimize=True)
        assert QueryCompiler.cache_stats.misses == 2, \
            "raw and planned plans must not share a cache slot"

    def test_engine_names_cover_all_configs(self):
        # BENCHMARK.json's exec.*_ms metrics are keyed on exactly these names
        assert ENGINE_NAMES == (
            "interpreter", "vectorized", "template-expander", "dblab-2",
            "dblab-3", "dblab-4", "dblab-5", "tpch-compliant")


class TestPlannerMode:
    @pytest.mark.parametrize("engine", ["interpreter", "dblab-5"])
    def test_measure_with_optimize_tags_the_plan_mode(self, harness, engine):
        raw = harness.measure("Q6", engine, optimize=False)
        planned = harness.measure("Q6", engine, optimize=True)
        assert raw.plan_mode == "raw" and planned.plan_mode == "planned"
        assert planned.rows == raw.rows

    def test_a_measurement_times_the_raw_plan_unless_told_to_optimize(self, harness):
        assert harness.measure("Q6", "vectorized").plan_mode == "raw"

    def test_table3_planner_grid(self, harness):
        results = harness.table3_planner(queries=["Q6"],
                                         engines=["interpreter", "vectorized"])
        pair = results["Q6"]["interpreter"]
        assert pair["raw"].rows == pair["planned"].rows
        assert pair["planned"].plan_mode == "planned"
        text = BenchmarkHarness.format_planner_table(results)
        assert "Q6" in text and "x)" in text

    def test_planner_json_report(self, harness, tmp_path):
        results = harness.table3_planner(queries=["Q6"], engines=["vectorized"])
        path = tmp_path / "BENCH_planner.json"
        BenchmarkHarness.write_planner_json(results, str(path), scale_factor=0.0005)
        import json
        payload = json.loads(path.read_text())
        assert payload["meta"]["scale_factor"] == 0.0005
        cell = payload["queries"]["Q6"]["vectorized"]
        assert cell["raw"]["rows"] == cell["planned"]["rows"]
        assert cell["speedup"] > 0


class TestLocAccounting:
    def test_count_loc_skips_comments_and_docstrings(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text('"""Docstring\nspanning lines\n"""\n# comment\nx = 1\n\ny = 2\n')
        assert count_loc(str(path)) == 2

    def test_count_loc_missing_file(self):
        assert count_loc("/nonexistent/file.py") == 0

    def test_table4_entries_are_nonempty(self):
        entries = table4()
        by_name = {e.name: e.lines for e in entries}
        assert by_name["Pipelining (push engine) for QPlan"] > 100
        assert by_name["String dictionaries"] > 50
        assert by_name["Dead code elimination"] > 10

    def test_individual_transformations_stay_small(self):
        """The productivity claim: each transformation is a few hundred lines."""
        for entry in table4():
            assert entry.lines < 800, f"{entry.name} has grown too large"

    def test_format_table4_mentions_total(self):
        text = format_table4()
        assert "Total" in text and "Transformation" in text

    def test_loc_by_package_covers_core_packages(self):
        totals = loc_by_package()
        for package in ("ir", "stack", "transforms", "codegen", "engine", "tpch"):
            assert totals.get(package, 0) > 100
