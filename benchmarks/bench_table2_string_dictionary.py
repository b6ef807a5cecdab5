"""Table 2: string operations versus their dictionary-coded integer versions.

The paper's Table 2 maps string operations onto integer operations through
string dictionaries.  This micro-benchmark measures both sides of the mapping
on a TPC-H column (``p_type``), demonstrating why the rewrite pays off:
integer comparisons against pre-encoded columns are substantially cheaper than
per-row string comparisons.  The dictionary is the catalog's own — the one
compiled queries and the vectorized engine read — built once at loading time
by the access layer, with its per-row code column.
"""
import pytest

from repro.codegen.runtime import catalog_prefix_range


@pytest.fixture(scope="module")
def column(catalog):
    return catalog.column("part", "p_type")


@pytest.fixture(scope="module")
def dictionary(catalog):
    dictionary = catalog.access_layer().dictionary("part", "p_type")
    assert dictionary is not None, "the catalog serves no dictionary of part.p_type"
    return dictionary


def test_equals_on_strings(benchmark, column):
    def count_matches():
        return sum(1 for value in column if value == "PROMO BRUSHED STEEL")
    result = benchmark(count_matches)
    assert result >= 0


def test_equals_on_dictionary_codes(benchmark, column, dictionary):
    encoded = dictionary.codes
    code = dictionary.code("PROMO BRUSHED STEEL")

    def count_matches():
        return sum(1 for value in encoded if value == code)

    result = benchmark(count_matches)
    assert result == sum(1 for value in column if value == "PROMO BRUSHED STEEL")


def test_startswith_on_strings(benchmark, column):
    def count_matches():
        return sum(1 for value in column if value.startswith("PROMO"))
    assert benchmark(count_matches) >= 0


def test_startswith_as_code_range(benchmark, column, dictionary):
    encoded = dictionary.codes
    lo, hi = catalog_prefix_range(dictionary, "PROMO")

    def count_matches():
        return sum(1 for value in encoded if lo <= value <= hi)

    assert benchmark(count_matches) == sum(1 for v in column if v.startswith("PROMO"))


def test_dictionary_correctness_of_all_mappings(column, dictionary):
    """Table 2 semantics: equals / notEquals / startsWith agree with strings."""
    encoded = dictionary.codes
    assert len(encoded) == len(column)
    target = column[0]
    code = dictionary.code(target)
    prefix = target.split(" ")[0]
    lo, hi = catalog_prefix_range(dictionary, prefix)
    for raw, enc in zip(column, encoded):
        assert (raw == target) == (enc == code)
        assert (raw != target) == (enc != code)
        assert raw.startswith(prefix) == (lo <= enc <= hi)
