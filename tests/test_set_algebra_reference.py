"""End to end on the integer set algebra: scenarios drawn from the
benchmark's `set-algebra` generators at random seeds, run through
`run_scenario` and checked task by task by the benchmark's own reference,
which decodes the reports itself and shares no code with typeflow.

Each example runs one scenario of each kind the generator makes from one
seed's corpus: Boolean operations on sets with coprime periods, an explicit
list with difference sets, and a family search (`pestov-check`,
`kernel-intersection` or `singleton-minimal`).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_check import check_against_the_reference, generate

KINDS = (("periods",), ("list",), ("pestov-check", "kernel-intersection", "singleton-minimal"))


@settings(derandomize=True, deadline=None, max_examples=24)
@given(st.integers(min_value=0, max_value=2**32), st.data())
def test_the_reference_accepts_set_algebra_scenarios(seed, data):
    scenarios = generate("set-algebra", seed)
    drawn = [data.draw(st.sampled_from([s for s in scenarios if s[0].startswith(p)])) for p in KINDS]
    check_against_the_reference(seed, drawn)
