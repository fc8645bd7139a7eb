"""End to end with the brute-force oracle: the scenarios of the benchmark's
`oracle-crosscheck` corpus at random seeds, run through `run_scenario` with
their `--with-oracle` flag and checked task by task by the benchmark's own
reference, which decodes the reports itself and shares no code with
typeflow.

Each example runs every scenario of one seed's corpus: integer levels up
to 8, each task cross-checked by the oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_check import check_against_the_reference, generate


@settings(derandomize=True, deadline=None, max_examples=6)
@given(st.integers(min_value=0, max_value=2**32))
def test_the_reference_accepts_oracle_crosscheck_scenarios(seed):
    scenarios = generate("oracle-crosscheck", seed)
    assert all(flags == ["--with-oracle"] for _, _, flags in scenarios)
    check_against_the_reference(seed, scenarios)
