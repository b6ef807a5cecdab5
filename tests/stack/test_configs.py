"""Tests for the evaluated stack configurations (Section 7 of the paper)."""
import pytest

from repro.stack.configs import CONFIG_NAMES, all_configs, build_config, config_flags
from repro.stack.language import C_PY, QPLAN


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

    def test_flags_grow_monotonically_with_levels(self):
        """Each additional level only ever enables more optimizations."""
        previous = set(config_flags("dblab-2").enabled())
        for name in ("dblab-3", "dblab-4", "dblab-5"):
            current = set(config_flags(name).enabled())
            assert previous <= current, f"{name} disabled something from the level below"
            assert previous != current
            previous = current

    def test_tpch_compliant_disables_the_non_compliant_optimizations(self):
        """Footnote 11: string dictionaries, partitioning, index inference,
        field removal — plus the catalog access layer, which amortises the
        same load-time work across queries."""
        compliant = config_flags("tpch-compliant")
        full = config_flags("dblab-5")
        assert full.string_dictionaries and not compliant.string_dictionaries
        assert full.data_structure_partitioning and not compliant.data_structure_partitioning
        assert full.automatic_index_inference and not compliant.automatic_index_inference
        assert full.unused_field_removal and not compliant.unused_field_removal
        assert full.catalog_access_layer and not compliant.catalog_access_layer
        # everything else stays identical
        differing = {name for name in vars(full)
                     if getattr(full, name) != getattr(compliant, name)}
        assert differing == {"string_dictionaries", "data_structure_partitioning",
                             "automatic_index_inference", "unused_field_removal",
                             "catalog_access_layer"}

    def test_level2_only_pipelines(self):
        """Pipelining is the stack's one lowering, not an option: level 2
        enables no optional optimization at all."""
        flags = config_flags("dblab-2")
        assert flags.enabled() == []
        assert not flags.hash_table_specialization
        assert not flags.data_layout

    def test_every_flag_is_read_by_the_source(self):
        """A flag no transformation consults only widens every compiled-cache
        key and every ``describe()``: each field must be read somewhere."""
        import dataclasses
        import pathlib
        import repro
        from repro.stack.context import OptimizationFlags
        source = "\n".join(
            path.read_text(encoding="utf-8")
            for path in pathlib.Path(repro.__file__).parent.rglob("*.py")
            if path.name not in ("context.py", "configs.py"))
        fields = [f.name for f in dataclasses.fields(OptimizationFlags)]
        assert len(fields) == 18
        unread = [name for name in fields
                  if f"flags.{name}" not in source          # read directly
                  and f'flag = "{name}"' not in source]     # gates a pass
        assert unread == []

    def test_describe_mentions_levels_and_flags(self):
        config = build_config("dblab-4")
        text = config.describe()
        assert "dblab-4" in text and "hash_table_specialization" in text

    def test_stacks_respect_cohesion_by_construction(self):
        """Every configuration has exactly one lowering out of each non-target level."""
        for config in all_configs():
            sources = [lowering.source.name for lowering in config.stack.lowerings]
            assert len(sources) == len(set(sources))
