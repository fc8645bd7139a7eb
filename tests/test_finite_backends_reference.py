"""End to end on finite and product backends: the scenarios of the
benchmark's `finite-backends` corpus at random seeds, run through
`run_scenario` and checked task by task by the benchmark's own reference,
which decodes the reports itself and shares no code with typeflow.

One test runs every product scenario of one seed's corpus: the ℤ×F ones
and the F×F ones, each with genericity, Boolean, translate and
difference-set tasks. The other runs every finite-table scenario of one
seed's corpus: cyclic, explicit and bundled tables.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_check import check_against_the_reference, generate


@settings(derandomize=True, deadline=None, max_examples=6)
@given(st.integers(min_value=0, max_value=2**32))
def test_the_reference_accepts_product_scenarios(seed):
    scenarios = generate("finite-backends", seed)
    products = [s for s in scenarios if s[1]["group"]["kind"] == "product"]
    assert any(scenario["group"]["left"]["kind"] == "integers" for _, scenario, _ in products)
    assert any(scenario["group"]["left"]["kind"] == "bundled" for _, scenario, _ in products)
    check_against_the_reference(seed, products)


@settings(derandomize=True, deadline=None, max_examples=3)
@given(st.integers(min_value=0, max_value=2**32))
def test_the_reference_accepts_finite_table_scenarios(seed):
    scenarios = generate("finite-backends", seed)
    tables = [s for s in scenarios if s[1]["group"]["kind"] != "product"]
    assert {scenario["group"]["kind"] for _, scenario, _ in tables} == {"cyclic", "finite", "bundled"}
    check_against_the_reference(seed, tables)
