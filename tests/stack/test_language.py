"""Unit tests for DSL level definitions and language validation."""
import pytest

from repro.ir import IRBuilder, make_program
from repro.stack import (ALL_LANGUAGES, C_PY, Language, LanguageError, QMONAD, QPLAN,
                         SCALITE, SCALITE_LIST, SCALITE_MAP_LIST, language_by_name,
                         ordered_levels)


class TestLanguageDefinitions:
    def test_stack_levels_are_strictly_ordered(self):
        """QPlan/QMonad > ScaLite[Map,List] > ScaLite[List] > ScaLite > C.Py."""
        assert QPLAN.level == QMONAD.level
        assert QPLAN.level > SCALITE_MAP_LIST.level > SCALITE_LIST.level
        assert SCALITE_LIST.level > SCALITE.level > C_PY.level

    def test_front_ends_are_tree_dsls(self):
        assert QPLAN.kind == "tree"
        assert QMONAD.kind == "tree"

    def test_imperative_levels_are_anf_dsls(self):
        for lang in (SCALITE_MAP_LIST, SCALITE_LIST, SCALITE, C_PY):
            assert lang.kind == "anf"

    def test_expressibility_ops_grow_downwards(self):
        """Lower levels only ever add expressive power (expressibility principle)."""
        assert SCALITE_MAP_LIST.ops <= C_PY.ops
        assert SCALITE_LIST.ops <= C_PY.ops
        assert SCALITE.ops <= C_PY.ops

    def test_specialized_structures_not_in_map_list_level(self):
        """Dense structures only appear below ScaLite[Map, List]."""
        for op in ("dense_agg_new", "dense_agg_group"):
            assert not SCALITE_MAP_LIST.allows_op(op)
            assert SCALITE_LIST.allows_op(op)

    def test_folds_are_core_statements_at_every_level(self):
        """An aggregate folds into its accumulator record (an array, and a set
        for count_distinct) in the core every imperative level shares."""
        for lang in (SCALITE_MAP_LIST, SCALITE_LIST, SCALITE, C_PY):
            for op in ("array_get", "array_set", "set_add", "set_size"):
                assert lang.allows_op(op), (lang, op)

    def test_strdict_ops_available_where_the_optimization_runs(self):
        """StringDictionaries is declared at ScaLite[Map, List]; cohesion says
        an optimization stays within its language, so the strdict vocabulary
        must start there (the static verifier caught the earlier mismatch)."""
        assert SCALITE_MAP_LIST.allows_op("strdict_code")
        assert SCALITE_LIST.allows_op("strdict_code")

    def test_language_by_name(self):
        assert language_by_name("C.Py") is C_PY
        with pytest.raises(KeyError):
            language_by_name("Fortran")

    def test_ordered_levels_most_abstract_first(self):
        levels = [lang.level for lang in ordered_levels()]
        assert levels == sorted(levels, reverse=True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Language(name="Weird", level=5, kind="graph")

    def test_unregistered_ops_rejected(self):
        with pytest.raises(ValueError):
            Language(name="Weird", level=5, kind="anf", ops=frozenset({"quantum_sort"}))


class TestValidation:
    def _program_with(self, ops):
        b = IRBuilder()
        syms = []
        for op, args in ops:
            syms.append(b.emit(op, args))
        return make_program(b.finish(syms[-1] if syms else None), [], "test")

    def test_valid_scalite_program_passes(self):
        program = self._program_with([("add", [1, 2]), ("mul", [3, 4])])
        SCALITE.validate(program)

    def test_specialized_ops_rejected_above_their_level(self):
        program = self._program_with([("dense_agg_new", [8])])
        with pytest.raises(LanguageError):
            SCALITE_MAP_LIST.validate(program)

    def test_anf_language_rejects_tree_program(self):
        with pytest.raises(LanguageError):
            SCALITE.validate(object())

    def test_tree_language_rejects_anf_program(self):
        program = self._program_with([("add", [1, 2])])
        with pytest.raises(LanguageError):
            QPLAN.validate(program)

    def test_all_languages_unique_names(self):
        names = [lang.name for lang in ALL_LANGUAGES]
        assert len(names) == len(set(names))
