"""Tests for the evaluated stack configurations (Section 7 of the paper)."""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl.qmonad import QueryMonad
from repro.stack.configs import CONFIG_NAMES, build_config
from repro.stack.language import C_PY, QMONAD, QPLAN
from repro.tpch.queries import build_query


def all_configs():
    return [build_config(name) for name in CONFIG_NAMES]


def pass_names(config_name):
    """Everything a configuration runs: its optimizations and its lowerings."""
    stack = build_config(config_name).stack
    return ({opt.name for opt in stack.optimizations}
            | {low.name for low in stack.lowerings})


class TestConfigs:
    def test_all_configurations_build(self):
        configs = all_configs()
        assert [c.name for c in configs] == list(CONFIG_NAMES)

    def test_template_expander_is_the_one_lowering_stack(self):
        """The degenerate stack: plan to target code in a single lowering,
        with no level that could host an optimization."""
        config = build_config("template-expander")
        assert CONFIG_NAMES[0] == "template-expander"
        assert config.stack.languages == [QPLAN, C_PY]
        assert len(config.stack.lowerings) == 1
        assert config.stack.optimizations == []
        assert config.flags.enabled() == []
        assert config.stack.level_count(QPLAN) == 2

    def test_level_counts_match_names(self):
        assert build_config("dblab-2").stack.level_count(QPLAN) == 2
        assert build_config("dblab-3").stack.level_count(QPLAN) == 3
        assert build_config("dblab-4").stack.level_count(QPLAN) == 4
        assert build_config("dblab-5").stack.level_count(QPLAN) == 5
        assert build_config("tpch-compliant").stack.level_count(QPLAN) == 5

    def test_every_stack_targets_cpy(self):
        for config in all_configs():
            assert config.stack.target_language is C_PY

    def test_unknown_configuration_rejected(self):
        with pytest.raises(KeyError):
            build_config("dblab-42")

    def test_pass_lists_grow_monotonically_with_levels(self):
        """Each additional level only ever adds transformations."""
        previous = pass_names("dblab-2")
        for name in ("dblab-3", "dblab-4", "dblab-5"):
            current = pass_names(name)
            assert previous < current, f"{name} dropped a pass of the level below"
            previous = current

    def test_tpch_compliant_drops_the_non_compliant_optimizations(self):
        """Footnote 11: string dictionaries, field removal, and — with the
        catalog access layer, the only source of loading-time structures —
        partitioning / index inference.  Everything else is the five-level
        stack."""
        compliant, full = build_config("tpch-compliant"), build_config("dblab-5")
        assert pass_names("dblab-5") - pass_names("tpch-compliant") == {
            "string-dictionaries[ScaLite[Map, List]]", "unused-field-removal[QPlan]"}
        assert pass_names("tpch-compliant") < pass_names("dblab-5")
        assert [(type(low), low.target) for low in compliant.stack.lowerings] \
            == [(type(low), low.target) for low in full.stack.lowerings]
        assert full.flags.catalog_access_layer and not compliant.flags.catalog_access_layer
        assert compliant.flags == full.flags.copy_with(catalog_access_layer=False)

    def test_level2_only_pipelines(self):
        """Pipelining is the stack's one lowering: level 2 lists no
        optimization at all and sets no flag."""
        config = build_config("dblab-2")
        assert config.stack.optimizations == []
        assert config.flags.enabled() == []
        assert [low.name for low in config.stack.lowerings] \
            == ["pipelining", "qmonad-shortcut-fusion"]

    def test_monad_fusion_is_listed_only_where_it_runs(self):
        listed = [name for name in CONFIG_NAMES
                  if "monad-fusion[QMonad]" in pass_names(name)]
        assert listed == ["dblab-5", "tpch-compliant"]

    def test_every_pass_is_listed_by_a_configuration(self):
        """A pass exists because a configuration runs it: every
        ``Optimization`` defined under ``repro.transforms`` is a front-end
        pass or a level pass of some Table 3 row that does not leave it out."""
        import importlib
        import pkgutil
        import repro.transforms
        from repro.stack.configs import _LEVEL_PASSES, _ROWS
        from repro.stack.transformation import Optimization
        defined = set()
        for info in pkgutil.iter_modules(repro.transforms.__path__):
            module = importlib.import_module(f"repro.transforms.{info.name}")
            defined |= {cls for cls in vars(module).values()
                        if isinstance(cls, type) and issubclass(cls, Optimization)
                        and cls.__module__ == module.__name__}
        listed = set()
        for row in _ROWS.values():
            listed |= (set(row.front_end_passes)
                       | {make for level in row.chain
                          for make in _LEVEL_PASSES.get(level, ())}) - set(row.without)
        assert sorted(cls.__name__ for cls in defined - listed) == []

    def test_option_census(self):
        """What runs is the pass list; the options left are the three a caller
        sets independently of it — and nothing in ``src/`` gates a pass."""
        import dataclasses
        import pathlib
        import repro
        from repro.stack.context import OptimizationFlags
        assert [f.name for f in dataclasses.fields(OptimizationFlags)] == [
            "logical_plan_optimizer", "catalog_access_layer", "subplan_sharing"]
        assert len({OptimizationFlags(), OptimizationFlags()}) == 1   # hashable
        with pytest.raises(TypeError):
            OptimizationFlags().copy_with(hash_table_specialization=False)
        source = "\n".join(
            path.read_text(encoding="utf-8")
            for path in pathlib.Path(repro.__file__).parent.rglob("*.py"))
        assert '    flag = "' not in source and "def applies" not in source

    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_every_listed_optimization_is_run(self, tpch_catalog, config_name,
                                              monkeypatch):
        """``DslStack.compile`` filters nothing: a QPlan and a QMonad compile
        together run every optimization the stack lists."""
        config = build_config(config_name)
        ran = set()
        for opt in config.stack.optimizations:
            def run(program, context, opt=opt, inner=opt.run):
                ran.add(opt.name)
                return inner(program, context)
            monkeypatch.setattr(opt, "run", run)
        compiler = QueryCompiler(config.stack, config.flags)
        QueryCompiler.clear_cache()
        compiler.compile(build_query("Q3"), tpch_catalog, "Q3")
        if QMONAD in config.stack.languages:
            compiler.compile(QueryMonad.table("nation").count("n"), tpch_catalog, "n")
        assert ran == {opt.name for opt in config.stack.optimizations}

    def test_levels_is_read_off_the_stack(self):
        assert [config.levels for config in all_configs()] == [2, 2, 3, 4, 5, 5]

    def test_describe_mentions_levels_and_flags(self):
        config = build_config("dblab-4")
        text = config.describe()
        assert "dblab-4: 4 levels" in text and "catalog_access_layer" in text

    def test_stacks_respect_cohesion_by_construction(self):
        """Every configuration has exactly one lowering out of each non-target level."""
        for config in all_configs():
            sources = [lowering.source.name for lowering in config.stack.lowerings]
            assert len(sources) == len(set(sources))
